//! The `cactus-lint` binary: scan a workspace, run every rule family,
//! render findings, and exit nonzero if any survive.
//!
//! ```text
//! cactus-lint [--root PATH] [--format text|json]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use cactus_lint::{report, run_all, Workspace};

struct Args {
    root: PathBuf,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(
                    argv.next()
                        .ok_or_else(|| "--root requires a path".to_owned())?,
                );
            }
            "--format" => {
                let fmt = argv
                    .next()
                    .ok_or_else(|| "--format requires text or json".to_owned())?;
                json = match fmt.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format {other:?}; use text or json")),
                };
            }
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args { root, json })
}

const USAGE: &str = "usage: cactus-lint [--root PATH] [--format text|json]\n\n\
Static analysis for the Cactus serving stack: the forbid table (no-panic\n\
daemon paths and per-path bans), lock-order cycles, /v1 surface\n\
consistency, metric/span name hygiene, and reach (no `pub` item that\n\
nothing outside its crate names).";

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("cactus-lint: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ws = match Workspace::scan(&args.root) {
        Ok(ws) => ws,
        Err(err) => {
            eprintln!("cactus-lint: scanning {}: {err}", args.root.display());
            return ExitCode::from(2);
        }
    };
    let findings = run_all(&ws);
    if args.json {
        print!("{}", report::render_json(&findings));
    } else {
        print!("{}", report::render_text(&findings));
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
