//! The `cactus-serve` daemon.
//!
//! ```text
//! cactus-serve [--addr HOST:PORT] [--workers N] [--queue N] [--cache N]
//!              [--retry-after SECS] [--store-dir PATH] [--port-file PATH]
//!              [--span-log PATH] [--devices ID,ID,...]
//! ```
//!
//! Binds (port 0 picks an ephemeral port), optionally writes the bound port
//! to `--port-file` (CI and scripts read it back), then serves until
//! `SIGINT`/`SIGTERM`. Shutdown is graceful: in-flight and queued requests
//! are answered before the process exits 0.

use std::process::ExitCode;
use std::time::Duration;

use cactus_serve::{signal, ServeConfig, Server};

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(Parsed::Run(config, port_file)) => run(config, port_file),
        Ok(Parsed::Help) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("cactus-serve: {msg}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: cactus-serve [options]

  --addr HOST:PORT     bind address (default 127.0.0.1:7070; port 0 = ephemeral)
  --workers N          worker threads (default 4)
  --queue N            accepted connections allowed to wait (default 64)
  --cache N            response-cache entries, 0 disables (default 256)
  --retry-after SECS   Retry-After advertised on 503 (default 1)
  --store-dir PATH     profile-store directory, held exclusively while running
                       (default: CACTUS_PROFILE_STORE, else workspace
                       results/profiles — the one the fig/table bins use)
  --port-file PATH     write the bound port here once listening
  --span-log PATH      append every finished span as a JSON line here
  --devices ID,ID,...  catalog device ids this backend models and advertises
                       (default: the full catalog)
  --help               show this help
";

enum Parsed {
    Run(ServeConfig, Option<String>),
    Help,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut config = ServeConfig {
        addr: "127.0.0.1:7070".to_owned(),
        ..ServeConfig::default()
    };
    let mut port_file = None;
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Parsed::Help);
        }
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value()?,
            "--workers" => config.workers = parse_num(&flag, &value()?)?,
            "--queue" => config.queue = parse_num(&flag, &value()?)?,
            "--cache" => config.cache_capacity = parse_num(&flag, &value()?)?,
            "--retry-after" => config.retry_after_s = parse_num(&flag, &value()?)?,
            "--store-dir" => config.store_dir = Some(value()?.into()),
            "--span-log" => config.span_log = Some(value()?.into()),
            "--devices" => {
                config.devices = value()?
                    .split(',')
                    .map(|id| id.trim().to_owned())
                    .filter(|id| !id.is_empty())
                    .collect();
            }
            "--port-file" => port_file = Some(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Parsed::Run(config, port_file))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("{flag}: invalid number {value:?}"))
}

fn run(config: ServeConfig, port_file: Option<String>) -> ExitCode {
    signal::install_handlers();
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cactus-serve: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.addr();
    eprintln!(
        "cactus-serve: listening on http://{addr}/ (try /v1/healthz, /v1/devices, /v1/workloads)"
    );
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", addr.port())) {
            eprintln!("cactus-serve: cannot write port file {path}: {e}");
            server.join();
            return ExitCode::FAILURE;
        }
    }

    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("cactus-serve: shutdown requested, draining in-flight requests");
    server.join();
    eprintln!("cactus-serve: drained, exiting");
    ExitCode::SUCCESS
}
