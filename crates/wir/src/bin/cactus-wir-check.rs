//! `cactus-wir-check` — run the static validator over workload IR files.
//!
//! ```text
//! cactus-wir-check [--format text|json] <file>…
//! ```
//!
//! Exit status: 0 when every file validates with zero findings, 1 when any
//! finding was reported, 2 on usage or I/O errors.

use cactus_wir::{analyze, render_json, render_text};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = "text".to_owned();
    let mut files: Vec<String> = Vec::new();
    let mut i = 0usize;
    while i < args.len() {
        let arg = args.get(i).map(String::as_str).unwrap_or("");
        match arg {
            "--format" => match args.get(i + 1) {
                Some(v) if v == "text" || v == "json" => {
                    format = v.clone();
                    i += 1;
                }
                _ => return usage("--format requires `text` or `json`"),
            },
            "--help" | "-h" => return usage(""),
            other if other.starts_with("--") => {
                return usage(&format!("unknown flag `{other}`"));
            }
            file => files.push(file.to_owned()),
        }
        i += 1;
    }
    if files.is_empty() {
        return usage("no input files");
    }

    let mut dirty = false;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cactus-wir-check: {file}: {e}");
                return ExitCode::from(2);
            }
        };
        let findings = match analyze(&text) {
            Ok(_) => Vec::new(),
            Err(findings) => findings,
        };
        if format == "json" {
            println!("{}", render_json(file, &findings));
        } else if findings.is_empty() {
            println!("{file}: ok");
        } else {
            print!("{}", render_text(file, &findings));
        }
        if !findings.is_empty() {
            dirty = true;
        }
    }
    if dirty {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("cactus-wir-check: {error}");
    }
    eprintln!("usage: cactus-wir-check [--format text|json] <file>...");
    ExitCode::from(2)
}
