//! Rule table `forbid`: shapes that may not appear in named parts of the
//! tree, one row per shape, each with the reason it is banned.
//!
//! `ROWS` is the one source for these checks. Each row names a rule (the
//! finding's rule and the `lint:allow` key), a path set with exceptions,
//! what is forbidden there, and why. Three kinds of row exist:
//!
//! * **Token rows** match significant-token sequences in lexed `.rs`
//!   files, so comments and string contents never match. A non-test row
//!   skips `#[cfg(test)]` items wherever they sit in the file, and whole
//!   `tests/`, `benches/` and `examples/` trees. A hit yields to
//!   `// lint:allow(rule, reason)` on its line, the line above, or the
//!   first line of its statement; an allow without a reason is itself a
//!   finding.
//! * **Text rows** are tombstones over docs, YAML, results and string
//!   contents: every line of every file under the named paths is matched
//!   by substring, with no lexer and no escape hatch. Their patterns are
//!   built with `concat!` so this file does not match itself.
//! * **Absent rows** name paths that must not exist.

use crate::lexer::{Token, TokenKind};
use crate::report::Finding;
use crate::rules::{gated_at, live_tokens, stmt_line};
use crate::scan::{SourceFile, Workspace};

/// Which tokens of a lexed file a token row reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// Outside `#[cfg(test)]` items and test, bench and example trees.
    NonTest,
    /// Every significant token, test code included.
    All,
}

/// What a row forbids under its paths.
enum Shape {
    /// Space-separated token sequences. Besides literal token text, two
    /// classes match: `<int>` (an integer literal) and `<expr-tail>` (an
    /// identifier other than a keyword that precedes an expression, `)` or
    /// `]`: a token an index can follow).
    Tokens(Scope, &'static [&'static str]),
    /// Substrings of any line.
    Text(&'static [&'static str]),
    /// The paths themselves must not exist.
    Absent,
}

struct Row {
    rule: &'static str,
    /// For token rows, globs over workspace-relative `.rs` paths (`*` is
    /// one path segment, `**` any number). For text and absent rows, files
    /// or directories named from the root; directories are read whole
    /// except for build output and lint fixtures.
    paths: &'static [&'static str],
    /// Globs a token row excludes from `paths`.
    except: &'static [&'static str],
    shape: Shape,
    reason: &'static str,
}

/// Daemon paths: a panic here unwinds a worker thread and silently
/// shrinks the pool. The six crates' whole `src/` trees (the similarity
/// index, the store and the WIR validator run inside serve workers), the
/// two `gpu` files the cold-simulate path enters through (the engine pool
/// and the launch engine), and the two `profiler` codecs every body a
/// daemon reads off the wire goes through (the profile document and the
/// CSV fields). The engine resolves memory traffic through
/// `cache::hierarchy` → `cache::analytic`; the trace-driven simulator is a
/// test oracle no daemon links.
const DAEMON: &[&str] = &[
    "crates/serve/src/**",
    "crates/gateway/src/**",
    "crates/obs/src/**",
    "crates/simindex/src/**",
    "crates/store/src/**",
    "crates/wir/src/**",
    "crates/gpu/src/pool.rs",
    "crates/gpu/src/engine.rs",
    "crates/profiler/src/store.rs",
    "crates/profiler/src/csv.rs",
];

const ROWS: &[Row] = &[
    Row {
        rule: "no_panic",
        paths: DAEMON,
        except: &[],
        shape: Shape::Tokens(Scope::NonTest, &[". unwrap ( )"]),
        reason: "on a daemon path; return an error (or lint:allow(no_panic, reason) if \
                 provably infallible)",
    },
    Row {
        rule: "no_panic",
        paths: DAEMON,
        except: &[],
        shape: Shape::Tokens(Scope::NonTest, &[". expect ("]),
        reason: "on a daemon path; return an error (or lint:allow(no_panic, reason) if \
                 provably infallible)",
    },
    Row {
        rule: "no_panic",
        paths: DAEMON,
        except: &[],
        shape: Shape::Tokens(Scope::NonTest, &["panic !"]),
        reason: "on a daemon path; return an error (or lint:allow(no_panic, reason) if \
                 unreachable by construction)",
    },
    Row {
        rule: "no_panic",
        paths: DAEMON,
        except: &[],
        shape: Shape::Tokens(Scope::NonTest, &["<expr-tail> [ <int> ]"]),
        reason: "indexes by literal on a daemon path and can panic; use `.get(…)` (or \
                 lint:allow(no_panic, reason))",
    },
    Row {
        rule: "one_daemon_loop",
        paths: &["crates/*/src/**"],
        except: &["crates/serve/src/daemon.rs"],
        shape: Shape::Tokens(
            Scope::All,
            &[
                "fn accept_loop",
                "fn worker_loop",
                "fn handle_connection",
                "fn reject_busy",
            ],
        ),
        reason: "the accept/worker/connection loop lives in crates/serve/src/daemon.rs and \
                 nowhere else",
    },
    Row {
        rule: "one_perf_ruler",
        paths: &[
            ".github",
            "crates",
            "vendor",
            "Cargo.toml",
            "README.md",
            "DESIGN.md",
        ],
        except: &[],
        shape: Shape::Text(&[concat!("CACTUS_BENCH", "_"), concat!("bench", "_gate")]),
        reason: "benchmark/ + BENCHMARK.json is the only perf system; the gate binary and \
                 its env vars stay gone",
    },
    Row {
        rule: "one_perf_ruler",
        paths: &["vendor/criterion", "results/bench"],
        except: &[],
        shape: Shape::Absent,
        reason: "benchmark/ + BENCHMARK.json is the only perf system; the criterion shim \
                 and its snapshots stay gone",
    },
    Row {
        rule: "fft_arith",
        paths: &["crates/md/src/fft.rs"],
        except: &[],
        shape: Shape::Tokens(
            Scope::NonTest,
            &[
                "mul_add",
                "fadd_fast",
                "fmul_fast",
                "fsub_fast",
                ". cos ( )",
                ". sin ( )",
            ],
        ),
        reason: "profile bits may not depend on codegen: the planned FFT has no fused or \
                 fast-math arithmetic and evaluates trig only on FftPlan::new's twiddle line",
    },
    Row {
        rule: "pme_arith",
        paths: &["crates/md/src/pme.rs"],
        except: &[],
        shape: Shape::Tokens(
            Scope::NonTest,
            &[
                "mul_add",
                "fadd_fast",
                "fmul_fast",
                "fsub_fast",
                "cos (",
                "sin (",
                "sin_cos (",
            ],
        ),
        reason: "profile bits may not depend on codegen: the PME solve has no fused or \
                 fast-math arithmetic and no trig; every twiddle comes from FftPlan's table",
    },
    Row {
        rule: "per_cpu_code",
        paths: &[
            "crates/md/src/fft.rs",
            "crates/md/src/pme.rs",
            "crates/md/src/forces.rs",
        ],
        except: &[],
        shape: Shape::Tokens(
            Scope::All,
            &["unsafe", "target_feature", "is_x86_feature_detected"],
        ),
        reason: "the MD model's bits may not depend on the host CPU: the transform, the \
                 PME solve and the pair loop have no per-CPU path and no unchecked code",
    },
    Row {
        rule: "ffi_home",
        paths: DAEMON,
        except: &["crates/serve/src/net.rs", "crates/serve/src/signal.rs"],
        shape: Shape::Tokens(Scope::All, &["unsafe"]),
        reason: "daemon code reaches the C library only through serve's net.rs (bind, poll) \
                 and signal.rs (signal); add the call there behind a safe wrapper",
    },
    Row {
        rule: "one_repair_decision",
        paths: &["crates/gateway/src/**"],
        except: &["crates/gateway/src/sync.rs"],
        shape: Shape::Tokens(Scope::NonTest, &["parse_manifest", ". push_record ("]),
        reason: "which backend lacks which record is decided by gateway::sync::plan alone; \
                 read manifests and push records through sync.rs",
    },
    Row {
        rule: "one_backend_path",
        paths: &["crates/gateway/src/**"],
        except: &["crates/gateway/src/connpool.rs"],
        shape: Shape::Tokens(Scope::NonTest, &["Client : : new", "Connection : : new"]),
        reason: "every gateway→backend exchange goes through the connection pool \
                 (Router's pooled exchange); a fresh connection waits behind the backend \
                 workers that idle pooled connections hold",
    },
    Row {
        rule: "no_tick_loop",
        paths: &["crates/serve/src/**", "crates/gateway/src/**"],
        except: &[],
        shape: Shape::Tokens(Scope::NonTest, &["thread : : sleep"]),
        reason: "a daemon thread does not wake on a timer to see whether time has passed: \
                 read state off the clock when it is needed, wait on a stop signal \
                 (daemon::Periodic), or lint:allow(no_tick_loop, reason) a deliberate wait",
    },
    Row {
        rule: "one_http_codec",
        paths: &["crates/serve/src/**", "crates/gateway/src/**"],
        except: &["crates/serve/src/http.rs"],
        shape: Shape::Tokens(
            Scope::NonTest,
            &[
                ". read_until (",
                ". read_line (",
                ". read_to_string (",
                ". read_to_end (",
                ". read_exact (",
            ],
        ),
        reason: "HTTP messages are read by serve's http.rs alone (read_request, read_reply), \
                 under its head and body bounds; call those instead",
    },
    Row {
        rule: "one_csv_codec",
        paths: &["crates/*/src/**"],
        except: &["crates/profiler/src/csv.rs"],
        shape: Shape::Tokens(Scope::NonTest, &["\"\\\"\\\"\""]),
        reason: "CSV fields are quoted and unquoted by cactus_profiler::csv alone \
                 (push_field, read_table); call those instead",
    },
    Row {
        rule: "tensor_arith",
        paths: &["crates/tensor/src/**"],
        except: &[],
        shape: Shape::Tokens(
            Scope::NonTest,
            &["mul_add", "fadd_fast", "fmul_fast", "fsub_fast"],
        ),
        reason: "the tensor host path keeps its bits: a fused or fast-math operation in \
                 the conv microkernel would change every ML profile",
    },
    Row {
        rule: "launch_sink",
        paths: &[
            "crates/md/src/**",
            "crates/tensor/src/**",
            "crates/suites/src/**",
            "crates/graph/src/**",
            "crates/core/src/workloads.rs",
            "crates/wir/src/exec.rs",
        ],
        except: &[],
        shape: Shape::Tokens(Scope::NonTest, &["Gpu"]),
        reason: "derivation decides which kernels launch and never sees a device: take \
                 `&mut dyn cactus_gpu::LaunchSink` and let the caller pass an engine or a \
                 Vec<KernelDesc>",
    },
    Row {
        rule: "cache_oracle",
        paths: &["crates/*/src/**"],
        except: &[
            "crates/gpu/src/cache/**",
            "crates/bench/src/bin/ablation.rs",
        ],
        shape: Shape::Tokens(
            Scope::All,
            &["SetAssocCache", "cache : : sim", "cache : : trace"],
        ),
        reason: "the trace-driven cache simulator is the analytic model's test oracle, not \
                 a served path; outside gpu/src/cache only the ablation bin names it",
    },
    Row {
        rule: "store_internals",
        paths: &["crates/bench/src/**"],
        except: &[],
        shape: Shape::Tokens(
            Scope::All,
            &[
                "read_profile",
                "write_profile",
                "record_version",
                ". append (",
            ],
        ),
        reason: "one path from a triple to a profile: the fig/table bins resolve through \
                 cactus-serve's ProfileService and never touch the record layout",
    },
    Row {
        rule: "one_trace_format",
        paths: &[
            ".github",
            "crates",
            "tests",
            "examples",
            "results",
            "vendor",
            "benchmark",
            "Cargo.toml",
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
        ],
        except: &[],
        shape: Shape::Text(&[concat!("trace", "file"), concat!("cactus-trace", " v1")]),
        reason: "kernel traces are cactus-wir captures; the old text format and its module \
                 stay gone",
    },
];

/// Run every row over the workspace.
#[must_use]
pub(crate) fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for row in ROWS {
        match row.shape {
            Shape::Tokens(scope, pats) => {
                for f in &ws.files {
                    if covers(row, &f.rel) && (scope == Scope::All || !f.in_test_dir) {
                        check_tokens(f, row, scope, pats, &mut findings);
                    }
                }
            }
            Shape::Text(pats) => check_text(ws, row, pats, &mut findings),
            Shape::Absent => {
                for &p in row.paths {
                    if ws.root.join(p).symlink_metadata().is_ok() {
                        findings.push(Finding::new(
                            row.rule,
                            p,
                            0,
                            format!("`{p}` exists: {}", row.reason),
                        ));
                    }
                }
            }
        }
    }
    findings
}

fn check_tokens(
    f: &SourceFile,
    row: &Row,
    scope: Scope,
    pats: &[&str],
    findings: &mut Vec<Finding>,
) {
    let text = f.text.as_str();
    let sig = match scope {
        Scope::NonTest => live_tokens(f),
        Scope::All => f.tokens.iter().filter(|t| !t.is_trivia()).collect(),
    };
    for i in 0..sig.len() {
        for &pat in pats {
            let Some(last) = match_at(&sig, text, i, pat) else {
                continue;
            };
            let snippet = text.get(sig[i].start..last.end).unwrap_or(pat);
            findings.extend(gated_at(
                f,
                row.rule,
                &[sig[i].line, stmt_line(&sig, text, i)],
                format!("`{snippet}` {}", row.reason),
            ));
        }
    }
}

fn check_text(ws: &Workspace, row: &Row, pats: &[&str], findings: &mut Vec<Finding>) {
    for &p in row.paths {
        let files = match ws.text_files(p) {
            Ok(files) => files,
            Err(err) => {
                findings.push(Finding::new(row.rule, p, 0, format!("cannot read: {err}")));
                continue;
            }
        };
        for (rel, path) in files {
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(err) => {
                    findings.push(Finding::new(
                        row.rule,
                        &rel,
                        0,
                        format!("cannot read: {err}"),
                    ));
                    continue;
                }
            };
            let text = String::from_utf8_lossy(&bytes);
            for (n, line) in (1u32..).zip(text.lines()) {
                for pat in pats.iter().filter(|pat| line.contains(**pat)) {
                    findings.push(Finding::new(
                        row.rule,
                        &rel,
                        n,
                        format!("`{pat}` {}", row.reason),
                    ));
                }
            }
        }
    }
}

fn covers(row: &Row, rel: &str) -> bool {
    row.paths.iter().any(|g| glob(g, rel)) && !row.except.iter().any(|g| glob(g, rel))
}

/// Whether `/`-separated `path` matches `pat`, where a `*` segment matches
/// any one segment and a `**` segment any number of them.
fn glob(pat: &str, path: &str) -> bool {
    fn segs(pat: &[&str], path: &[&str]) -> bool {
        match pat.split_first() {
            None => path.is_empty(),
            Some((&"**", rest)) => {
                (0..=path.len()).any(|k| segs(rest, path.get(k..).unwrap_or(&[])))
            }
            Some((&head, rest)) => path
                .split_first()
                .is_some_and(|(&seg, tail)| (head == "*" || head == seg) && segs(rest, tail)),
        }
    }
    let pat: Vec<&str> = pat.split('/').collect();
    let path: Vec<&str> = path.split('/').collect();
    segs(&pat, &path)
}

/// The last token of `pat` when it matches starting at `sig[i]`.
fn match_at<'t>(sig: &[&'t Token], text: &str, i: usize, pat: &str) -> Option<&'t Token> {
    let mut last = None;
    for (k, want) in pat.split(' ').enumerate() {
        let t = *sig.get(i + k)?;
        let hit = match want {
            "<int>" => t.kind == TokenKind::Int,
            "<expr-tail>" => match t.kind {
                TokenKind::Ident => !matches!(
                    t.text(text),
                    "return" | "break" | "in" | "match" | "if" | "else"
                ),
                _ => matches!(t.text(text), ")" | "]"),
            },
            lit => t.text(text) == lit,
        };
        if !hit {
            return None;
        }
        last = Some(t);
    }
    last
}
