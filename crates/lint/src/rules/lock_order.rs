//! Rule `lock_order`: the static half of deadlock detection.
//!
//! Every `.lock()`, `.read()`, and `.write()` call with no arguments is
//! treated as a lock acquisition. The lock's identity is
//! `<crate>.<receiver-segment>` — the last field or binding name in the
//! receiver chain (`self.idle[k].lock()` → `gateway.idle`) — which is
//! stable across call sites because the stack names its lock fields
//! uniquely per crate.
//!
//! Guard lifetimes are inferred from brace scopes: a `let`-bound guard
//! lives until its enclosing block closes or an explicit `drop(guard)`;
//! a guard that is not bound (`self.m.lock().push(x)`) dies at the end of
//! its statement and never nests. Acquiring lock B while a guard of lock
//! A is live adds the edge `A → B` to a workspace-wide graph; a cycle in
//! that graph is an ordering that can deadlock under the right
//! interleaving, and is reported with the `file:line` of each edge.
//!
//! The runtime counterpart is `cactus_obs::lock::RankedMutex`, which
//! panics deterministically on the first out-of-rank acquisition.

use std::collections::BTreeMap;

use crate::lexer::Token;
use crate::report::Finding;
use crate::rules::live_tokens;
use crate::scan::{SourceFile, Workspace};

const RULE: &str = "lock_order";

/// One observed nesting: while a guard of `from` was live, `to` was
/// acquired at `file:line`.
#[derive(Debug, Clone)]
struct Edge {
    to: String,
    file: String,
    line: u32,
}

#[derive(Debug)]
struct LiveGuard {
    binding: String,
    lock: String,
    depth: i32,
}

/// Run the rule: extract edges per file, then find cycles globally.
#[must_use]
pub(crate) fn check(ws: &Workspace) -> Vec<Finding> {
    let mut graph: BTreeMap<String, Vec<Edge>> = BTreeMap::new();
    for f in ws.files.iter().filter(|f| !f.in_test_dir) {
        collect_edges(f, &mut graph);
    }
    find_cycles(&graph)
}

fn collect_edges(f: &SourceFile, graph: &mut BTreeMap<String, Vec<Edge>>) {
    let sig = live_tokens(f);
    let text = f.text.as_str();
    let mut depth = 0i32;
    let mut live: Vec<LiveGuard> = Vec::new();
    // The binding name of an in-flight `let`, consumed by the next
    // acquisition in the statement.
    let mut pending_let: Option<String> = None;

    let mut i = 0usize;
    while i < sig.len() {
        match sig[i].text(text) {
            "{" => {
                depth += 1;
                pending_let = None;
            }
            "}" => {
                depth -= 1;
                live.retain(|g| g.depth <= depth);
            }
            ";" => pending_let = None,
            "let" => {
                // `let [mut] name = …` — tuple/struct patterns fall back to
                // their first ident, which is close enough for drop-tracking.
                let mut j = i + 1;
                while sig.get(j).is_some_and(|t| t.text(text) == "mut") {
                    j += 1;
                }
                if let Some(t) = sig.get(j) {
                    if matches!(t.kind, crate::lexer::TokenKind::Ident) {
                        pending_let = Some(t.text(text).to_owned());
                    }
                }
            }
            // `drop(guard)` releases early.
            "drop"
                if sig.get(i + 1).is_some_and(|t| t.text(text) == "(")
                    && sig.get(i + 3).is_some_and(|t| t.text(text) == ")") =>
            {
                let name = sig.get(i + 2).map(|t| t.text(text));
                live.retain(|g| Some(g.binding.as_str()) != name);
            }
            "." => {
                if let Some(lock) = acquisition_at(&sig, text, i, &f.crate_name) {
                    for g in &live {
                        if g.lock == lock {
                            continue;
                        }
                        // First site per (from, to) pair; parallel edges
                        // add nothing to cycle detection.
                        let edges = graph.entry(g.lock.clone()).or_default();
                        if !edges.iter().any(|e| e.to == lock) {
                            edges.push(Edge {
                                to: lock.clone(),
                                file: f.rel.clone(),
                                line: sig[i].line,
                            });
                        }
                    }
                    if let Some(binding) = pending_let.take() {
                        live.push(LiveGuard {
                            binding,
                            lock,
                            depth,
                        });
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// If the `.` at `i` starts `.lock()`/`.read()`/`.write()`, resolve the
/// receiver's last segment into a lock id.
fn acquisition_at(sig: &[&Token], text: &str, i: usize, crate_name: &str) -> Option<String> {
    let method = sig.get(i + 1)?.text(text);
    if !matches!(method, "lock" | "read" | "write") {
        return None;
    }
    if sig.get(i + 2)?.text(text) != "(" || sig.get(i + 3)?.text(text) != ")" {
        return None;
    }
    let segment = receiver_segment(sig, text, i)?;
    Some(format!("{crate_name}.{segment}"))
}

/// Walk back from the `.` at `i` to the last named segment of the
/// receiver: `self.idle[k]` → `idle`, `slot.result` → `result`,
/// `rx` → `rx`, `pool().stats` → `stats`.
fn receiver_segment(sig: &[&Token], text: &str, i: usize) -> Option<String> {
    let mut j = i.checked_sub(1)?;
    // Skip one trailing index/call group, e.g. the `[k]` of `idle[k]`.
    loop {
        match sig.get(j)?.text(text) {
            "]" => j = match_open(sig, text, j, "[", "]")?.checked_sub(1)?,
            ")" => j = match_open(sig, text, j, "(", ")")?.checked_sub(1)?,
            _ => break,
        }
    }
    let t = sig.get(j)?;
    if matches!(t.kind, crate::lexer::TokenKind::Ident) {
        Some(t.text(text).to_owned())
    } else {
        None
    }
}

/// Index of the `open` matching the `close` at `j`, scanning backward.
fn match_open(sig: &[&Token], text: &str, j: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = j;
    loop {
        let t = sig.get(k)?.text(text);
        if t == close {
            depth += 1;
        } else if t == open {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
        k = k.checked_sub(1)?;
    }
}

/// DFS over the lock graph; every cycle becomes one finding anchored at
/// its first edge's site and spelling out the full path.
fn find_cycles(graph: &BTreeMap<String, Vec<Edge>>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut reported: Vec<Vec<String>> = Vec::new();
    for start in graph.keys() {
        let mut path: Vec<(String, Option<Edge>)> = vec![(start.clone(), None)];
        dfs(graph, &mut path, &mut reported, &mut findings);
    }
    findings
}

fn dfs(
    graph: &BTreeMap<String, Vec<Edge>>,
    path: &mut Vec<(String, Option<Edge>)>,
    reported: &mut Vec<Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    // The lock graph is tiny (one node per lock field); depth is bounded
    // by the node count, so plain recursion is safe.
    let Some((current, _)) = path.last() else {
        return;
    };
    let current = current.clone();
    for edge in graph.get(&current).into_iter().flatten() {
        if let Some(pos) = path.iter().position(|(n, _)| *n == edge.to) {
            // Cycle: path[pos..] plus this closing edge.
            let mut nodes: Vec<String> = path[pos..].iter().map(|(n, _)| n.clone()).collect();
            nodes.push(edge.to.clone());
            let mut canon = nodes.clone();
            canon.sort();
            canon.dedup();
            if reported.contains(&canon) {
                continue;
            }
            reported.push(canon);
            let mut msg = String::from("lock-order cycle: ");
            for (k, (node, via)) in path[pos..].iter().enumerate() {
                if k > 0 {
                    if let Some(e) = via {
                        msg.push_str(&format!(" -> {node} ({}:{})", e.file, e.line));
                        continue;
                    }
                }
                if k > 0 {
                    msg.push_str(&format!(" -> {node}"));
                } else {
                    msg.push_str(node);
                }
            }
            msg.push_str(&format!(" -> {} ({}:{})", edge.to, edge.file, edge.line));
            msg.push_str("; acquire these locks in one global order (see obs::lock::rank)");
            findings.push(Finding::new(RULE, &edge.file, edge.line, msg));
            continue;
        }
        path.push((edge.to.clone(), Some(edge.clone())));
        dfs(graph, path, reported, findings);
        path.pop();
    }
}
