//! The `rdbsc-server` binary: parse flags, start the serving subsystem,
//! block until it shuts down (via `POST /admin/shutdown`).

#![forbid(unsafe_code)]

use rdbsc_platform::EngineConfig;
use rdbsc_server::{Server, ServerConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: rdbsc-server [--addr HOST:PORT] [--threads N] [--queue N]\n\
         \x20                 [--flush-interval-ms N] [--max-batch N] [--seed N]\n\
         \x20                 [--beta F] [--cell-size F] [--time-scale F]\n\
         \x20                 [--partitions N] [--remote-partition HOST:PORT]...\n\
         \x20                 [--data-dir PATH] [--standby-partition HOST:PORT|-]...\n\
         \x20                 [--slow-tick-ms N]\n\
         \n\
         --flush-interval-ms N (default 20) and --max-batch N (default 512)\n\
         bound how long and how many heartbeats, expirations and leaves\n\
         coalesce before a tick. A new task or worker check-in ticks at once\n\
         instead, but an early tick waits until as long as the previous early\n\
         tick took has passed since it ended.\n\
         --flush-interval-ms 0 enables manual tick mode: the engine only\n\
         advances on POST /tick. Stop the server with POST /admin/shutdown.\n\
         --partitions N serves N spatial regions, one engine per region,\n\
         with cross-region worker handoff (default 1).\n\
         --remote-partition ADDR (repeatable) mounts a running\n\
         rdbsc-partitiond daemon as a region: the k-th flag serves region\n\
         k, remaining regions run in-process. The router handshakes and\n\
         pushes each daemon its routing table and engine config at boot.\n\
         --data-dir PATH write-ahead logs every in-process partition under\n\
         PATH/part-NNNN and recovers from the logs on restart; remote\n\
         daemons are durable when started with their own --data-dir.\n\
         --standby-partition ADDR (repeatable) arms failover for the k-th\n\
         remote partition: ADDR names an rdbsc-partitiond started with\n\
         --follow pointing at that region's primary. When the primary's\n\
         transport fails, the router promotes the standby and re-attaches\n\
         the slot to it instead of marking the region lost. Pass '-' to\n\
         skip a region.\n\
         --slow-tick-ms N captures every tick slower than N ms (stage\n\
         breakdown + span tree) for GET /debug/slow-ticks; 0 captures\n\
         every tick. Off by default."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServerConfig::default();
    let mut engine = EngineConfig::default();

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--help" || flag == "-h" {
            usage();
        }
        i += 1;
        let Some(value) = args.get(i) else {
            eprintln!("{flag} requires a value");
            usage();
        };
        i += 1;
        let parse_err = |what: &str| -> ! {
            eprintln!("{flag}: cannot parse {what:?}");
            usage();
        };
        match flag {
            "--addr" => config.addr = value.clone(),
            "--threads" => config.threads = value.parse().unwrap_or_else(|_| parse_err(value)),
            "--queue" => config.queue_capacity = value.parse().unwrap_or_else(|_| parse_err(value)),
            "--flush-interval-ms" => {
                let ms: u64 = value.parse().unwrap_or_else(|_| parse_err(value));
                config.flush_interval = Duration::from_millis(ms);
            }
            "--max-batch" => config.max_batch = value.parse().unwrap_or_else(|_| parse_err(value)),
            "--seed" => engine.seed = value.parse().unwrap_or_else(|_| parse_err(value)),
            "--beta" => engine.beta = value.parse().unwrap_or_else(|_| parse_err(value)),
            "--cell-size" => config.cell_size = value.parse().unwrap_or_else(|_| parse_err(value)),
            "--time-scale" => {
                config.time_scale = value.parse().unwrap_or_else(|_| parse_err(value))
            }
            "--partitions" => {
                config.partitions = value.parse().unwrap_or_else(|_| parse_err(value));
                if config.partitions == 0 {
                    eprintln!("--partitions must be at least 1");
                    usage();
                }
            }
            "--remote-partition" => config.remote_partitions.push(value.clone()),
            "--standby-partition" => config.standby_partitions.push(if value == "-" {
                String::new()
            } else {
                value.clone()
            }),
            "--data-dir" => config.data_dir = Some(value.into()),
            "--slow-tick-ms" => {
                let ms: u64 = value.parse().unwrap_or_else(|_| parse_err(value));
                config.slow_tick_threshold_us = ms.saturating_mul(1000);
            }
            _ => {
                eprintln!("unknown flag {flag}");
                usage();
            }
        }
    }
    config.engine = engine;
    if !config.remote_partitions.is_empty() && config.partitions < config.remote_partitions.len() {
        // `--remote-partition a --remote-partition b` with the default
        // partition count means a 2-region topology, not a config error.
        config.partitions = config.remote_partitions.len();
    }

    let mut mode = if config.flush_interval.is_zero() {
        "manual-tick".to_string()
    } else {
        format!("flush every {:?}", config.flush_interval)
    };
    if config.partitions > 1 {
        mode.push_str(&format!(", {} partitions", config.partitions));
    }
    if !config.remote_partitions.is_empty() {
        mode.push_str(&format!(
            ", {} remote ({})",
            config.remote_partitions.len(),
            config.remote_partitions.join(", ")
        ));
    }
    let standbys = config
        .standby_partitions
        .iter()
        .filter(|s| !s.is_empty())
        .count();
    if standbys > 0 {
        mode.push_str(&format!(", {standbys} standby(s) armed"));
    }
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "rdbsc-server listening on http://{} ({mode})",
        server.addr()
    );
    server.join();
    println!("rdbsc-server stopped");
}
