//! `promcheck`: validate a Prometheus text-format exposition.
//!
//! Reads the exposition from a file argument (or stdin when none is
//! given), runs it through [`rdbsc_obs::validate_prom`] — the same small
//! parser the unit tests use — and reports the sample count. Exits 0 when
//! the text parses and every sample is well-formed (TYPE declared, sane
//! histogram bucket monotonicity), 1 with the parse error on stderr
//! otherwise. CI pipes `GET /metrics?format=prom` scrapes through this to
//! catch exposition regressions.
//!
//! ```text
//! curl -s 'localhost:8080/metrics?format=prom' | cargo run -p rdbsc-bench --bin promcheck
//! cargo run -p rdbsc-bench --bin promcheck -- scrape.prom
//! ```

#![forbid(unsafe_code)]

use std::io::Read;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (source, text) = match args.as_slice() {
        [] => {
            let mut buf = String::new();
            if let Err(err) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("promcheck: stdin: {err}");
                std::process::exit(2);
            }
            ("<stdin>".to_string(), buf)
        }
        [path] => match std::fs::read_to_string(path) {
            Ok(buf) => (path.clone(), buf),
            Err(err) => {
                eprintln!("promcheck: {path}: {err}");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("usage: promcheck [FILE]   (reads stdin when FILE is omitted)");
            std::process::exit(2);
        }
    };
    match rdbsc_obs::validate_prom(&text) {
        Ok(samples) => println!("{source}: ok, {samples} samples"),
        Err(err) => {
            eprintln!("promcheck: {source}: {err}");
            std::process::exit(1);
        }
    }
}
