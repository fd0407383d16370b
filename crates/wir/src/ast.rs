//! Abstract syntax for the workload IR.
//!
//! One parsed definition is a [`WorkloadDef`]: a named workload carrying an
//! optional seed, integer parameters, named scale blocks, input classes,
//! kernel declarations, reusable phases, and a `run` schedule. Every node
//! records the 1-based source line it started on so validator findings stay
//! line-accurate; structural equality intentionally *includes* those lines,
//! so round-trip tests compare canonical printed forms instead (see
//! [`crate::printer`]).

/// Integer expression over literals, parameters, and scale variables.
/// Arithmetic is evaluated in `i128` with overflow and division-by-zero
/// detection at evaluation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Unsigned literal (underscore separators already stripped).
    Int(u64),
    /// Parameter or scale-variable reference.
    Var(String),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
    Mod(Box<Expr>, Box<Expr>),
}

/// Comparison operator inside a class condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl CmpOp {
    /// Surface spelling, as lexed and printed.
    #[must_use]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }
}

/// `lhs op rhs` guard on a `class … when` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cond {
    pub lhs: Expr,
    pub op: CmpOp,
    pub rhs: Expr,
}

/// `param name = expr;` or one `name = expr;` binding inside a scale block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    pub name: String,
    pub expr: Expr,
    pub line: u32,
}

/// `scale name { … }`: a named evaluation environment (tiny / small /
/// profile by convention, but any identifier is accepted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleBlock {
    pub name: String,
    pub vars: Vec<Param>,
    pub line: u32,
}

/// `class name when cond;` or `class name else;` — an input class the
/// selection statements dispatch on. `cond == None` marks the `else` class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassDef {
    pub name: String,
    pub cond: Option<Cond>,
    pub line: u32,
}

/// Launch-geometry flavor: `grid(blocks, threads_per_block)` or
/// `linear(total_threads, threads_per_block)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeomKind {
    Grid,
    Linear,
}

/// `launch grid(a, b) [regs r] [smem s];` inside a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchSpec {
    pub kind: GeomKind,
    pub a: Expr,
    pub b: Expr,
    pub regs: Option<Expr>,
    pub smem: Option<Expr>,
    pub line: u32,
}

/// Access-pattern constructor mirroring `cactus_gpu::AccessPattern`.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternSpec {
    Streaming,
    Random {
        working_set: Expr,
    },
    Sweep {
        working_set: Expr,
        sweeps: Expr,
    },
    HotCold {
        hot_fraction: f64,
        hot: Expr,
        cold: Expr,
    },
    Broadcast {
        bytes: Expr,
    },
}

/// `read accesses N tpa F pattern P;` / `write …` inside a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    pub write: bool,
    pub accesses: Expr,
    pub tpa: f64,
    pub pattern: PatternSpec,
    pub line: u32,
}

/// `kernel id { … }` declaration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelDef {
    /// Schedule-visible identifier (`launch id;`).
    pub id: String,
    /// Optional recorded-name override: captured traces reuse one kernel
    /// name across differently shaped launches, so distinct IR kernels can
    /// share a display name without colliding as identifiers.
    pub name: Option<String>,
    /// Optional taxonomy tag: `memory` / `compute` / `balanced`.
    pub taxonomy: Option<(String, u32)>,
    pub launch: Option<LaunchSpec>,
    /// `(mix class, count expression, line)` entries; omitted classes are
    /// zero and reconciled upward from declared streams at build time.
    pub mix: Vec<(String, Expr, u32)>,
    pub streams: Vec<StreamSpec>,
    /// `depend f;` dependency fraction override, line-tagged.
    pub depend: Option<(f64, u32)>,
    pub line: u32,
}

/// Schedule statement inside `phase` or `run` bodies.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `launch kernel_id;`
    Launch { kernel: String, line: u32 },
    /// `phase phase_id;` — call a declared phase.
    Call { phase: String, line: u32 },
    /// `repeat expr { … }`
    Repeat {
        count: Expr,
        body: Vec<Stmt>,
        line: u32,
    },
    /// `select on class { name -> stmt … }` — input-dependent dispatch
    /// over the declared classes.
    Select {
        arms: Vec<(String, Stmt)>,
        line: u32,
    },
}

/// One parsed `workload "name" { … }` definition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadDef {
    pub name: String,
    pub line: u32,
    /// `seed N;` — required whenever any stream uses a stochastic pattern.
    pub seed: Option<(u64, u32)>,
    pub params: Vec<Param>,
    pub scales: Vec<ScaleBlock>,
    pub classes: Vec<ClassDef>,
    pub kernels: Vec<KernelDef>,
    pub phases: Vec<(String, Vec<Stmt>, u32)>,
    pub run: Vec<Stmt>,
    /// Line of the `run` block header (or the workload header if absent).
    pub run_line: u32,
}

impl WorkloadDef {
    /// Look up a phase body by identifier.
    #[must_use]
    pub(crate) fn phase(&self, id: &str) -> Option<&Vec<Stmt>> {
        self.phases
            .iter()
            .find(|(name, _, _)| name == id)
            .map(|(_, body, _)| body)
    }

    /// Look up a scale block by name.
    #[must_use]
    pub(crate) fn scale(&self, name: &str) -> Option<&ScaleBlock> {
        self.scales.iter().find(|s| s.name == name)
    }
}

/// The nine instruction-mix classes, in `cactus_gpu::InstructionMix` field
/// order. The printer emits mix entries in this order and the type pass
/// rejects anything else.
pub const MIX_CLASSES: [&str; 9] = [
    "fp32", "special", "int", "branch", "load", "store", "shared", "sync", "misc",
];

/// Accepted kernel taxonomy tags.
pub const TAXONOMIES: [&str; 3] = ["memory", "compute", "balanced"];
