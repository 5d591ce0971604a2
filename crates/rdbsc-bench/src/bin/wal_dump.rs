//! `wal-dump`: pretty-print a write-ahead-log directory, read-only.
//!
//! Walks every `wal-*.log` segment via [`rdbsc_platform::inspect_dir`] and
//! prints segment headers (seqno, header `first_lsn`, file size), every
//! valid frame (LSN, record type, payload size, a one-line content
//! summary), where the checkpoints sit, the replication metadata the log
//! carries (the last ack watermark a primary noted, and any sealed-stream
//! markers a promotion or detach wrote), and a diagnosis of any damage: a
//! torn tail (bytes an appender would truncate on recovery), an unreadable
//! header, or whole segments stranded beyond the first break.
//!
//! ```text
//! cargo run -p rdbsc-bench --bin wal_dump -- /path/to/wal-dir
//! cargo run -p rdbsc-bench --bin wal_dump -- --frames /path/to/wal-dir
//! ```
//!
//! Without `--frames` only per-segment summaries print; with it, every
//! frame. Exits 0 on a clean log, 1 when any damage was diagnosed, 2 on
//! usage or I/O errors. Never writes: diagnosing a torn tail here does not
//! repair it (re-opening the log with the engine does).

#![forbid(unsafe_code)]

use rdbsc_platform::{inspect_dir, SegmentInfo};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: wal_dump [--frames] WAL_DIR");
    std::process::exit(2);
}

fn main() {
    let mut frames = false;
    let mut dir: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--frames" => frames = true,
            "--help" | "-h" => usage(),
            other if dir.is_none() && !other.starts_with('-') => {
                dir = Some(PathBuf::from(other));
            }
            _ => usage(),
        }
    }
    let Some(dir) = dir else { usage() };
    let infos = match inspect_dir(&dir) {
        Ok(infos) => infos,
        Err(err) => {
            eprintln!("wal_dump: {}: {err:?}", dir.display());
            std::process::exit(2);
        }
    };
    if infos.is_empty() {
        println!("{}: no wal segments", dir.display());
        return;
    }
    let mut damaged = false;
    let mut total_frames = 0usize;
    let mut checkpoints: Vec<u64> = Vec::new();
    // (lsn, acked, sealed) of every repl-meta marker, in log order.
    let mut repl_marks: Vec<(u64, u64, bool)> = Vec::new();
    for info in &infos {
        print_segment(info, frames);
        damaged |= info.unreadable || info.torn_bytes > 0 || info.beyond_prefix;
        total_frames += info.frames.len();
        checkpoints.extend(
            info.frames
                .iter()
                .filter(|f| f.kind == "checkpoint")
                .map(|f| f.lsn),
        );
        repl_marks.extend(
            info.frames
                .iter()
                .filter_map(|f| f.repl.map(|(acked, sealed)| (f.lsn, acked, sealed))),
        );
    }
    println!();
    println!(
        "{} segments, {} valid frames, {} checkpoints",
        infos.len(),
        total_frames,
        checkpoints.len()
    );
    if let Some(lsn) = checkpoints.last() {
        println!("latest checkpoint at lsn {lsn}");
    }
    if let Some(&(lsn, acked, sealed)) = repl_marks.last() {
        let seals = repl_marks.iter().filter(|(_, _, s)| *s).count();
        println!(
            "replication: {} markers, ack watermark {acked} (noted at lsn {lsn}), \
             stream {}",
            repl_marks.len(),
            if sealed {
                format!("SEALED ({seals} seal marker(s) — promoted or detached)")
            } else {
                "open".to_string()
            }
        );
    }
    if damaged {
        println!("DAMAGED: recovery would keep the valid prefix and truncate the rest");
        std::process::exit(1);
    }
    println!("clean");
}

fn print_segment(info: &SegmentInfo, frames: bool) {
    let header = match (info.beyond_prefix, info.first_lsn) {
        (true, _) => "not examined".to_string(),
        (false, Some(lsn)) => format!("first_lsn={lsn}"),
        (false, None) => "header unreadable".to_string(),
    };
    println!(
        "segment {:010}  {}  {} bytes  {} frames  {}",
        info.seqno,
        header,
        info.file_bytes,
        info.frames.len(),
        info.path.display()
    );
    if info.beyond_prefix {
        println!("  !! beyond the first break: no byte of this file is recoverable");
        return;
    }
    if info.unreadable {
        println!("  !! unreadable: bad magic/version/seqno or lsn chain break");
    }
    if frames {
        for frame in &info.frames {
            println!(
                "  lsn {:>8}  {:<10}  {:>6} B  {}",
                frame.lsn, frame.kind, frame.payload_bytes, frame.detail
            );
        }
    } else {
        // Checkpoints and replication markers are the log's landmarks —
        // print them even without `--frames`.
        for frame in info
            .frames
            .iter()
            .filter(|f| f.kind == "checkpoint" || f.repl.is_some())
        {
            println!(
                "  lsn {:>8}  {:<10}  {:>6} B  {}",
                frame.lsn, frame.kind, frame.payload_bytes, frame.detail
            );
        }
    }
    if info.torn_bytes > 0 {
        println!(
            "  !! torn tail: {} trailing bytes fail checksum/length validation",
            info.torn_bytes
        );
    }
}
