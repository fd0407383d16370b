//! The `cactus-gateway` daemon.
//!
//! ```text
//! cactus-gateway [--addr HOST:PORT]
//!                (--backend HOST:PORT ... | --fleet N [--store-dir PATH]
//!                 [--fleet-devices SETS])
//!                [--workers N] [--queue N] [--no-hedge]
//!                [--hedge-floor-ms MS] [--eject-after N] [--cooldown-ms MS]
//!                [--health-interval-ms MS] [--port-file PATH]
//!                [--span-log PATH]
//! ```
//!
//! Fronts either an externally-managed fleet (repeated `--backend`) or an
//! in-process supervised one (`--fleet N` spawns N `cactus-serve` backends
//! on ephemeral ports). Optionally writes the gateway's bound port to
//! `--port-file`, then routes until `SIGINT`/`SIGTERM`; shutdown drains the
//! gateway first (every accepted request is answered), then the supervised
//! backends, and exits 0.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use cactus_gateway::{Gateway, GatewayConfig, Supervisor};
use cactus_serve::{signal, ServeConfig};

const USAGE: &str = "\
usage: cactus-gateway [options]

  --addr HOST:PORT          bind address (default 127.0.0.1:7080; port 0 = ephemeral)
  --backend HOST:PORT       backend to route to; repeat for a fleet
  --fleet N                 spawn N in-process cactus-serve backends instead
  --fleet-devices SETS      per-backend modeled-device sets for --fleet:
                            semicolon-separated slots of comma-separated
                            catalog ids, e.g. \"rtx-3080,a100;uhd-630\"
                            (empty slot = full catalog; slot count must
                            match --fleet N)
  --store-dir PATH          profile-store root for --fleet backends; slot i
                            opens PATH/slot-<i> (default: CACTUS_PROFILE_STORE,
                            else workspace results/profiles)
  --workers N               gateway worker threads (default 8)
  --queue N                 accepted connections allowed to wait (default 128)
  --no-hedge                disable hedged requests
  --hedge-floor-ms MS       minimum hedge delay (default 20, at most the
                            2000 ms hedge cap)
  --eject-after N           consecutive failures before ejection (default 2)
  --cooldown-ms MS          ejection cooldown before half-open (default 1000)
  --health-interval-ms MS   active /v1/healthz probe interval, each round
                            followed by a store repair pass, the only
                            replica copy; 0 = passive only: no repair, so
                            no replica copies (default 500)
  --port-file PATH          write the bound port here once listening
  --span-log PATH           append every finished span as a JSON line here
  --help                    show this help
";

struct Args {
    config: GatewayConfig,
    backends: Vec<SocketAddr>,
    fleet: usize,
    fleet_devices: Option<Vec<Vec<String>>>,
    store_dir: Option<String>,
    port_file: Option<String>,
}

enum Parsed {
    Run(Box<Args>),
    Help,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Parsed, String> {
    let mut parsed = Args {
        config: GatewayConfig {
            addr: "127.0.0.1:7080".to_owned(),
            ..GatewayConfig::default()
        },
        backends: Vec::new(),
        fleet: 0,
        fleet_devices: None,
        store_dir: None,
        port_file: None,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Parsed::Help);
        }
        if flag == "--no-hedge" {
            parsed.config.hedge = false;
            continue;
        }
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--addr" => parsed.config.addr = value()?,
            "--backend" => parsed.backends.push(
                value()?
                    .parse()
                    .map_err(|_| "--backend: invalid address".to_string())?,
            ),
            "--fleet" => parsed.fleet = parse_num(&flag, &value()?)?,
            "--fleet-devices" => {
                parsed.fleet_devices = Some(
                    value()?
                        .split(';')
                        .map(|slot| {
                            slot.split(',')
                                .map(str::trim)
                                .filter(|id| !id.is_empty())
                                .map(ToOwned::to_owned)
                                .collect()
                        })
                        .collect(),
                );
            }
            "--store-dir" => parsed.store_dir = Some(value()?),
            "--workers" => parsed.config.workers = parse_num(&flag, &value()?)?,
            "--queue" => parsed.config.queue = parse_num(&flag, &value()?)?,
            "--hedge-floor-ms" => {
                parsed.config.hedge_floor = Duration::from_millis(parse_num(&flag, &value()?)?);
            }
            "--eject-after" => parsed.config.eject_after = parse_num(&flag, &value()?)?,
            "--cooldown-ms" => {
                parsed.config.cooldown = Duration::from_millis(parse_num(&flag, &value()?)?);
            }
            "--health-interval-ms" => {
                let ms: u64 = parse_num(&flag, &value()?)?;
                parsed.config.probe_interval = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--port-file" => parsed.port_file = Some(value()?),
            "--span-log" => parsed.config.span_log = Some(value()?.into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    parsed
        .config
        .validate()
        .map_err(|msg| format!("--hedge-floor-ms: {msg}"))?;
    if parsed.backends.is_empty() && parsed.fleet == 0 {
        return Err("need --backend (repeatable) or --fleet N".to_owned());
    }
    if !parsed.backends.is_empty() && parsed.fleet > 0 {
        return Err("--backend and --fleet are mutually exclusive".to_owned());
    }
    if let Some(sets) = &parsed.fleet_devices {
        if parsed.fleet == 0 {
            return Err("--fleet-devices requires --fleet".to_owned());
        }
        if sets.len() != parsed.fleet {
            return Err(format!(
                "--fleet-devices names {} slot(s) but --fleet is {}",
                sets.len(),
                parsed.fleet
            ));
        }
    }
    Ok(Parsed::Run(Box::new(parsed)))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .trim()
        .parse()
        .map_err(|_| format!("{flag}: invalid number {value:?}"))
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(Parsed::Run(args)) => run(*args),
        Ok(Parsed::Help) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("cactus-gateway: {msg}");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> ExitCode {
    signal::install_handlers();

    // Supervised fleet first, so its addresses exist before the gateway ranks them.
    let mut supervisor = None;
    let backends = if args.fleet > 0 {
        let base = ServeConfig {
            store_dir: args.store_dir.as_ref().map(Into::into),
            ..ServeConfig::default()
        };
        let spawned = match &args.fleet_devices {
            Some(sets) => Supervisor::spawn_heterogeneous(sets, &base),
            None => Supervisor::spawn_fleet(args.fleet, &base),
        };
        match spawned {
            Ok(fleet) => {
                let addrs = fleet.addrs();
                for (i, addr) in addrs.iter().enumerate() {
                    let devices = match &args.fleet_devices {
                        Some(sets) if !sets[i].is_empty() => sets[i].join(","),
                        _ => "full catalog".to_owned(),
                    };
                    eprintln!(
                        "cactus-gateway: backend[{i}] listening on http://{addr}/ ({devices})"
                    );
                }
                supervisor = Some(fleet);
                addrs
            }
            Err(e) => {
                eprintln!("cactus-gateway: fleet spawn failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        args.backends
    };

    let gateway = match Gateway::start(args.config, backends) {
        Ok(gateway) => gateway,
        Err(e) => {
            eprintln!("cactus-gateway: bind failed: {e}");
            if let Some(fleet) = supervisor {
                fleet.shutdown_all();
            }
            return ExitCode::FAILURE;
        }
    };
    let addr = gateway.addr();
    eprintln!(
        "cactus-gateway: routing on http://{addr}/ (try /v1/healthz, /v1/devices, /v1/compare)"
    );
    if let Some(path) = &args.port_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", addr.port())) {
            eprintln!("cactus-gateway: cannot write port file {path}: {e}");
            gateway.join();
            if let Some(fleet) = supervisor {
                fleet.shutdown_all();
            }
            return ExitCode::FAILURE;
        }
    }

    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("cactus-gateway: shutdown requested, draining in-flight requests");
    // Drain the gateway before the backends so every accepted request can
    // still be forwarded somewhere.
    gateway.join();
    if let Some(fleet) = supervisor {
        fleet.shutdown_all();
    }
    eprintln!("cactus-gateway: drained, exiting");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Parsed, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn a_hedge_floor_above_the_cap_is_rejected() {
        let err = parse(&["--backend", "127.0.0.1:7001", "--hedge-floor-ms", "3000"])
            .err()
            .expect("3 s floor over a 2 s cap");
        assert!(
            err.contains("--hedge-floor-ms") && err.contains("hedge cap 2s"),
            "{err}"
        );
        let Ok(Parsed::Run(args)) =
            parse(&["--backend", "127.0.0.1:7001", "--hedge-floor-ms", "2000"])
        else {
            panic!("a floor equal to the cap is accepted");
        };
        assert_eq!(args.config.hedge_floor, Duration::from_secs(2));
    }
}
