//! The `rdbsc-partitiond` binary: serve exactly one partition's assignment
//! engine over the partition protocol.
//!
//! The daemon boots unconfigured; the router that mounts it (an
//! `rdbsc-server` started with `--remote-partition ADDR`) says hello and
//! pushes the routing table, region index and engine configuration as the
//! first two frames on its command connection. Stop it with a `Shutdown`
//! frame (what a router's graceful shutdown sends) or
//! `POST /admin/shutdown`.

#![forbid(unsafe_code)]

use rdbsc_server::{PartitionDaemon, PartitiondConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: rdbsc-partitiond [--addr HOST:PORT] [--threads N] [--queue N]\n\
         \x20                     [--max-body-bytes N] [--idle-timeout-ms N]\n\
         \x20                     [--data-dir PATH] [--slow-tick-ms N]\n\
         \x20                     [--follow HOST:PORT]\n\
         \n\
         Serves one spatial partition's engine over the partition protocol.\n\
         The daemon starts unconfigured; a router (rdbsc-server with\n\
         --remote-partition pointing here) pushes the routing table and\n\
         engine configuration at boot. Stop with POST /admin/shutdown.\n\
         \n\
         --data-dir PATH makes the daemon durable: events and tick commands\n\
         are write-ahead logged to PATH before application, and on restart\n\
         the daemon self-configures from the persisted configure payload,\n\
         loads the last checkpoint and replays the log tail — recovering\n\
         exactly the acknowledged state.\n\
         --follow HOST:PORT boots the daemon as a replication standby: it\n\
         bootstraps its state from the primary at that address, applies\n\
         shipped WAL records continuously (lag on /metrics), and refuses\n\
         mutating client commands until a promote command turns it\n\
         into the serving primary — what a router with\n\
         --standby-partition does on primary failure.\n\
         --slow-tick-ms N captures every tick slower than N ms (stage\n\
         breakdown + span tree) for GET /debug/slow-ticks; 0 captures\n\
         every tick. Off by default."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = PartitiondConfig::default();

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
            "--max-body-bytes" => {
                config.max_body_bytes = value.parse().unwrap_or_else(|_| parse_err(value))
            }
            "--idle-timeout-ms" => {
                let ms: u64 = value.parse().unwrap_or_else(|_| parse_err(value));
                config.idle_timeout = Duration::from_millis(ms);
            }
            "--data-dir" => config.data_dir = Some(value.into()),
            "--follow" => config.follow = Some(value.clone()),
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

    let durable = config.data_dir.is_some();
    let standby = config.follow.clone();
    let daemon = match PartitionDaemon::start(config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("failed to start: {e}");
            std::process::exit(1);
        }
    };
    let role = match &standby {
        Some(primary) => format!(" (standby following {primary})"),
        None if durable => " (durable; recovered state if a log was present)".to_string(),
        None => " (unconfigured; waiting for a router)".to_string(),
    };
    println!(
        "rdbsc-partitiond listening on http://{}{role}",
        daemon.addr()
    );
    daemon.join();
    println!("rdbsc-partitiond stopped");
}
