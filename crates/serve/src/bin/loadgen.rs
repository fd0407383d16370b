//! `loadgen` — a closed-loop load generator for `cactus-serve` and
//! `cactus-gateway`.
//!
//! ```text
//! loadgen --target HOST:PORT [--target HOST:PORT ...] [--clients N]
//!         [--requests N] [--path PATH]
//! ```
//!
//! Spawns `--clients` closed-loop clients (each sends its next request only
//! after the previous response arrives) over keep-alive connections,
//! fanning `--requests` total requests round-robin across every `--target`,
//! then prints throughput, a latency
//! summary (p50/p90/p99), a status histogram, and the per-target request
//! distribution — so the same binary drives one daemon, a fleet, or the
//! gateway in front of it. `503` responses are counted separately so
//! backpressure shows up as pushback, not as errors. With
//! `--similar DEVICE/SCALE/WORKLOAD` every fourth request becomes a
//! `/v1/similar` reference query for that triple, mixing stateful
//! similarity traffic into the profile load.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cactus_serve::client::ClientError;
use cactus_serve::metrics::quantile;
use cactus_serve::{Connection, DeviceId};

const USAGE: &str = "\
usage: loadgen --target HOST:PORT [--target HOST:PORT ...] [options]

  --target HOST:PORT server to load; repeat for several targets
                     (requests round-robin across all of them)
  --clients N        concurrent closed-loop clients (default 4)
  --requests N       total requests across all clients (default 200)
  --path PATH        request path (default /v1/profile/rtx-3080/tiny/GMS)
  --similar TRIPLE   DEVICE/SCALE/WORKLOAD; every 4th request becomes a
                     /v1/similar reference query for that triple
  --workload-file F  POST the cactus-wir definition in file F to the first
                     target before the run; unless --path is given, the run
                     then loads /v1/profile/rtx-3080/tiny/<its name>
  --help             show this help
";

/// With `--similar`, one request in this many goes to `/v1/similar`.
const SIMILAR_EVERY: u64 = 4;

struct Args {
    targets: Vec<SocketAddr>,
    clients: usize,
    requests: u64,
    path: String,
    /// Whether `--path` was given explicitly (suppresses the derived
    /// profile path of `--workload-file`).
    path_explicit: bool,
    similar_path: Option<String>,
    workload_file: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut targets = Vec::new();
    let mut clients = 4usize;
    let mut requests = 200u64;
    let mut path = "/v1/profile/rtx-3080/tiny/GMS".to_owned();
    let mut path_explicit = false;
    let mut similar_path = None;
    let mut workload_file = None;
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--target" => {
                targets.push(
                    value
                        .parse()
                        .map_err(|_| format!("{flag}: invalid address {value:?}"))?,
                );
            }
            "--clients" => {
                clients = value
                    .parse()
                    .map_err(|_| format!("--clients: invalid number {value:?}"))?;
            }
            "--requests" => {
                requests = value
                    .parse()
                    .map_err(|_| format!("--requests: invalid number {value:?}"))?;
            }
            "--path" => {
                path = value;
                path_explicit = true;
            }
            "--workload-file" => workload_file = Some(value),
            "--similar" => {
                let parts: Vec<&str> = value.split('/').collect();
                let [device, scale, workload] = parts.as_slice() else {
                    return Err(format!(
                        "--similar: expected DEVICE/SCALE/WORKLOAD, got {value:?}"
                    ));
                };
                // Typo-check the device against the catalog before any
                // traffic is generated for it.
                let device = DeviceId::resolve(device).map_err(|e| format!("--similar: {e}"))?;
                similar_path = Some(format!(
                    "/v1/similar?device={device}&scale={scale}&workload={workload}"
                ));
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if targets.is_empty() {
        return Err("at least one --target is required".to_owned());
    }
    Ok(Some(Args {
        targets,
        clients: clients.max(1),
        requests,
        path,
        path_explicit,
        similar_path,
        workload_file,
    }))
}

/// Submit the `--workload-file` definition to the first target and return
/// the profile path the run should load (the explicit `--path` wins).
fn submit_workload(args: &Args, file: &str) -> Result<Option<String>, String> {
    let source =
        std::fs::read_to_string(file).map_err(|e| format!("--workload-file {file}: {e}"))?;
    let target = *args
        .targets
        .first()
        .ok_or_else(|| "no targets configured".to_owned())?;
    let mut conn = Connection::new(target, Duration::from_secs(60));
    let reply = conn
        .post_traced("/v1/workloads", &source, None)
        .map_err(|e| format!("POST /v1/workloads: {e}"))?;
    if !(200..300).contains(&reply.status) {
        return Err(format!(
            "POST /v1/workloads answered {}: {}",
            reply.status,
            reply.body.trim_end()
        ));
    }
    println!("loadgen: {}", reply.body.trim_end());
    if args.path_explicit {
        return Ok(None);
    }
    // Derive the default request path from the definition's own name. The
    // submission already validated it server-side, so a parse failure here
    // is unreachable; surface it instead of unwrapping anyway.
    let def = cactus_wir::parse(&source).map_err(|f| format!("--workload-file {file}: {f}"))?;
    Ok(Some(format!("/v1/profile/rtx-3080/tiny/{}", def.name)))
}

#[derive(Default, Clone)]
struct Tally {
    statuses: BTreeMap<u16, u64>,
    latencies_us: Vec<u64>,
    per_target: Vec<u64>,
    transport_errors: u64,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let mut args = args;
    if let Some(file) = args.workload_file.take() {
        match submit_workload(&args, &file) {
            Ok(Some(derived)) => args.path = derived,
            Ok(None) => {}
            Err(msg) => {
                eprintln!("loadgen: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    let issued = Arc::new(AtomicU64::new(0));
    let tally = Arc::new(Mutex::new(Tally {
        per_target: vec![0; args.targets.len()],
        ..Tally::default()
    }));
    let path = Arc::new(args.path);
    let similar_path = Arc::new(args.similar_path);
    let targets = Arc::new(args.targets);
    let budget = args.requests;
    let started = Instant::now();

    let threads: Vec<_> = (0..args.clients)
        .map(|_| {
            let issued = Arc::clone(&issued);
            let tally = Arc::clone(&tally);
            let path = Arc::clone(&path);
            let similar_path = Arc::clone(&similar_path);
            let targets = Arc::clone(&targets);
            std::thread::spawn(move || {
                // One keep-alive connection per target, reused across this
                // client's whole run.
                let mut conns: Vec<Connection> = targets
                    .iter()
                    .map(|&addr| Connection::new(addr, Duration::from_secs(60)))
                    .collect();
                loop {
                    // Claim one global request slot; its index picks the
                    // target round-robin so the distribution is exact.
                    let slot = issued.fetch_add(1, Ordering::Relaxed);
                    if slot >= budget {
                        break;
                    }
                    let target = usize::try_from(slot).unwrap_or(usize::MAX) % targets.len();
                    let request_path = match similar_path.as_ref() {
                        Some(sp) if slot % SIMILAR_EVERY == SIMILAR_EVERY - 1 => sp.as_str(),
                        _ => path.as_str(),
                    };
                    let start = Instant::now();
                    let outcome = conns[target].get(request_path);
                    let elapsed_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                    let mut tally = tally.lock().unwrap_or_else(|e| e.into_inner());
                    tally.per_target[target] += 1;
                    match outcome {
                        Ok(reply) => {
                            *tally.statuses.entry(reply.status).or_insert(0) += 1;
                            tally.latencies_us.push(elapsed_us);
                        }
                        Err(ClientError::Io(_)) => tally.transport_errors += 1,
                        Err(_) => *tally.statuses.entry(0).or_insert(0) += 1,
                    }
                }
            })
        })
        .collect();
    for t in threads {
        let _ = t.join();
    }

    let wall = started.elapsed();
    let tally = match Arc::try_unwrap(tally) {
        Ok(m) => m.into_inner().unwrap_or_else(|e| e.into_inner()),
        // Every client thread was joined above, so this arm is unreachable;
        // reading through the lock keeps it panic-free anyway.
        Err(shared) => shared.lock().unwrap_or_else(|e| e.into_inner()).clone(),
    };

    let completed: u64 = tally.statuses.values().sum();
    let attempted: u64 = tally.per_target.iter().sum();
    let mut sorted = tally.latencies_us.clone();
    sorted.sort_unstable();
    println!(
        "loadgen: {} requests in {:.3}s over {} clients against {} target(s)",
        completed,
        wall.as_secs_f64(),
        args.clients,
        targets.len()
    );
    println!("  path: {path}");
    if let Some(sp) = similar_path.as_ref() {
        println!("  similar: {sp} (every {SIMILAR_EVERY}th request)");
    }
    if wall.as_secs_f64() > 0.0 {
        println!(
            "  throughput: {:.1} req/s",
            completed as f64 / wall.as_secs_f64()
        );
    }
    println!(
        "  latency: p50 {} us, p90 {} us, p99 {} us",
        quantile(&sorted, 0.50),
        quantile(&sorted, 0.90),
        quantile(&sorted, 0.99),
    );
    print!("  statuses:");
    for (status, count) in &tally.statuses {
        if *status == 0 {
            print!(" parse-error={count}");
        } else {
            print!(" {status}={count}");
        }
    }
    println!();
    println!("  per-target distribution:");
    for (i, (addr, count)) in targets.iter().zip(&tally.per_target).enumerate() {
        let share = if attempted > 0 {
            100.0 * *count as f64 / attempted as f64
        } else {
            0.0
        };
        println!("    target[{i}] {addr}: {count} requests ({share:.1}%)");
    }
    if tally.transport_errors > 0 {
        println!("  transport errors: {}", tally.transport_errors);
    }

    // Non-2xx/503 statuses (or transport errors) make the run fail so CI
    // can assert on exit code.
    let hard_failures: u64 = tally
        .statuses
        .iter()
        .filter(|(s, _)| !(200..300).contains(&i32::from(**s)) && **s != 503)
        .map(|(_, c)| *c)
        .sum();
    if hard_failures > 0 || tally.transport_errors > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
