//! Item/impl/fn extraction over the token stream.
//!
//! Turns one lexed source file into a list of [`FnInfo`] fact records:
//! the calls a function makes, the OS-blocking primitives it touches,
//! the locks it acquires (with an approximate guard-held region), and
//! the atomic operations it performs. The extraction is syntactic and
//! deliberately conservative — over-approximating calls and guard
//! regions is safe for the taint and lock-order passes (false edges can
//! be justified with annotations; missed edges cannot be), while the
//! declaration sets keep method-name matching from drowning in noise
//! (`.lock()` only counts on a receiver declared as a `Mutex`/`RwLock`,
//! `.wait()` only on a declared `Condvar`).

use std::collections::{BTreeMap, BTreeSet};

use crate::strip::{lex, Tok, TokKind};

/// One source file handed to the analyzer. `path` uses forward slashes
/// relative to the workspace root.
#[derive(Clone, Debug)]
pub struct SourceFile {
    pub path: String,
    pub text: String,
}

/// Workspace-wide declaration name sets, harvested from field, static,
/// parameter, and `let` declarations before any function is extracted.
#[derive(Clone, Debug, Default)]
pub struct Decls {
    /// Names declared as `Condvar`.
    pub condvars: BTreeSet<String>,
    /// Names declared as `Mutex` / `RwLock` (anything with a blocking
    /// `.lock()`-family acquisition).
    pub locks: BTreeSet<String>,
    /// Names declared as `Atomic*`.
    pub atomics: BTreeSet<String>,
    /// Names declared as mpsc `Receiver`.
    pub receivers: BTreeSet<String>,
    /// Names declared as `JoinHandle`.
    pub join_handles: BTreeSet<String>,
    /// `(file, declared name)` → the uppercase type idents in its
    /// declaration window (e.g. `queues` → {`Box`, `Mutex`,
    /// `VecDeque`}). Used to keep method-call resolution from linking
    /// `.len()`/`.get()` on a container to unrelated workspace fns.
    /// File-scoped on purpose: a `q: MpscQueue` field in one crate must
    /// not type a `|q|` closure parameter in another.
    pub typed: BTreeMap<(usize, String), BTreeSet<String>>,
    /// Alias → canonical name, from `let a = &path.to.b;` bindings, so
    /// ops through the alias unify with ops on the field itself.
    pub canon: BTreeMap<String, String>,
}

impl Decls {
    /// Follow the alias chain (bounded) to the canonical identity.
    pub fn canonical<'a>(&'a self, name: &'a str) -> &'a str {
        let mut cur = name;
        for _ in 0..8 {
            match self.canon.get(cur) {
                Some(next) if next != cur => cur = next,
                _ => break,
            }
        }
        cur
    }

    /// Type idents recorded for `name` as declared in `file` (already
    /// canonicalized names only — callers pass `canonical(..)`).
    pub fn typed_of(&self, file: usize, name: &str) -> Option<&BTreeSet<String>> {
        self.typed.get(&(file, name.to_string()))
    }
}

/// A call site inside a function body.
#[derive(Clone, Debug)]
pub struct Call {
    pub name: String,
    /// Immediate path qualifier (`thread` in `thread::sleep`, `Condvar`
    /// in `Condvar::wait`), if any.
    pub qual: Option<String>,
    /// True for `.name(…)` method-call syntax.
    pub method: bool,
    /// Nearest nameable identifier of the receiver chain for method
    /// calls (`self` for `self.f()`, `log` for `self.log.get(k)`; None
    /// for call-result receivers like `f().g()`).
    pub recv: Option<String>,
    /// Top-level argument count at the call site (used to arity-filter
    /// name-based resolution).
    pub args_n: usize,
    pub line: usize,
    /// Token index of the callee name in the file's token stream.
    pub tok: usize,
}

/// Which OS-blocking primitive a [`BlockSite`] is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockKind {
    CondvarWait,
    ThreadSleep,
    ThreadPark,
    ChanRecv,
    ThreadJoin,
}

impl BlockKind {
    pub fn describe(self) -> &'static str {
        match self {
            BlockKind::CondvarWait => "condvar wait",
            BlockKind::ThreadSleep => "thread::sleep",
            BlockKind::ThreadPark => "thread::park",
            BlockKind::ChanRecv => "channel recv",
            BlockKind::ThreadJoin => "thread join",
        }
    }
}

/// A direct OS-blocking call site.
#[derive(Clone, Debug)]
pub struct BlockSite {
    pub kind: BlockKind,
    /// Human-readable site, e.g. `park.wait`.
    pub what: String,
    pub line: usize,
    pub tok: usize,
    /// Identifiers appearing in the call's arguments (used to recognize
    /// the condvar-wait-releases-this-guard pattern).
    pub args: Vec<String>,
}

/// A blocking lock acquisition (`.lock()` / `.read()` / `.write()` on a
/// declared `Mutex`/`RwLock` receiver).
#[derive(Clone, Debug)]
pub struct LockSite {
    /// Lock identity: the receiver's field/binding name.
    pub lock: String,
    pub line: usize,
    /// Token index of the acquisition method name.
    pub tok: usize,
    /// Token index (inclusive) up to which the guard is conservatively
    /// considered held: end of statement for temporaries, end of the
    /// enclosing block (or an explicit `drop(guard)`) for `let` guards.
    pub region_end: usize,
    /// The `let` binding the guard landed in, if any.
    pub guard: Option<String>,
}

/// Memory-ordering class of one atomic operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ord {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl Ord {
    fn parse(s: &str) -> Option<Ord> {
        Some(match s {
            "Relaxed" => Ord::Relaxed,
            "Acquire" => Ord::Acquire,
            "Release" => Ord::Release,
            "AcqRel" => Ord::AcqRel,
            "SeqCst" => Ord::SeqCst,
            _ => return None,
        })
    }

    /// Does this ordering carry release semantics on a store side?
    pub fn is_release_class(self) -> bool {
        matches!(self, Ord::Release | Ord::AcqRel | Ord::SeqCst)
    }

    /// Does this ordering carry acquire semantics on a load side?
    pub fn is_acquire_class(self) -> bool {
        matches!(self, Ord::Acquire | Ord::AcqRel | Ord::SeqCst)
    }
}

/// One atomic operation on a declared atomic field/binding.
#[derive(Clone, Debug)]
pub struct AtomicOp {
    /// The atomic's field/binding name (workspace-wide identity).
    pub field: String,
    /// Method name (`load`, `store`, `fetch_add`, …).
    pub op: String,
    /// Effective load-side ordering, if the op has a load side.
    pub load_ord: Option<Ord>,
    /// Effective store-side ordering, if the op has a store side.
    pub store_ord: Option<Ord>,
    pub line: usize,
}

/// Everything the passes need to know about one function.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Index into the workspace file table.
    pub file: usize,
    pub name: String,
    /// Surrounding `impl`/`trait` type, if any.
    pub impl_type: Option<String>,
    /// Number of non-`self` parameters (for arity-filtered resolution).
    pub params_n: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    pub calls: Vec<Call>,
    pub blocks: Vec<BlockSite>,
    pub locks: Vec<LockSite>,
    pub atomics: Vec<AtomicOp>,
}

impl FnInfo {
    /// `Type::name` or bare `name`.
    pub fn qual_name(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

const WAIT_METHODS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_timeout",
    "wait_while",
    "wait_until",
    "wait_timeout_while",
];

const LOCK_METHODS: &[&str] = &["lock", "read", "write"];
const NONBLOCK_LOCK_METHODS: &[&str] = &["try_lock", "try_read", "try_write"];

const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Keywords that look like calls when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "in", "move", "as", "ref", "mut",
    "else", "unsafe", "box", "dyn", "impl", "use", "pub", "where", "break", "continue", "async",
    "await", "crate", "super", "Self", "self", "true", "false", "const", "static", "type", "enum",
    "struct", "trait", "mod", "extern", "yield",
];

/// Type names that classify a declaration into [`Decls`] sets.
fn classify_type_ident(name: &str, ty: &str, decls: &mut Decls) {
    match ty {
        "Condvar" => {
            decls.condvars.insert(name.to_string());
        }
        "Mutex" | "RwLock" => {
            decls.locks.insert(name.to_string());
        }
        "Receiver" => {
            decls.receivers.insert(name.to_string());
        }
        "JoinHandle" => {
            decls.join_handles.insert(name.to_string());
        }
        t if t.starts_with("Atomic") && t.len() > "Atomic".len() => {
            decls.atomics.insert(name.to_string());
        }
        _ => {}
    }
}

/// Pre-lexed view of one file shared by declaration harvesting and
/// function extraction.
pub struct LexedFile<'a> {
    pub text: &'a str,
    pub toks: Vec<Tok>,
}

impl<'a> LexedFile<'a> {
    pub fn new(text: &'a str) -> Self {
        LexedFile {
            text,
            toks: lex(text),
        }
    }

    fn txt(&self, i: usize) -> &'a str {
        self.toks[i].text(self.text)
    }

    fn is_punct(&self, i: usize, c: char) -> bool {
        self.toks
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text(self.text).starts_with(c))
    }

    fn is_ident(&self, i: usize) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == TokKind::Ident)
    }
}

/// Harvest declaration names (`name: Type`, `static NAME: Type`,
/// `let name = Type::new(...)`, `let name: Type = ...`) into `decls`.
pub fn collect_decls(file_idx: usize, file: &LexedFile<'_>, decls: &mut Decls) {
    let n = file.toks.len();
    for i in 0..n {
        if !file.is_ident(i) {
            continue;
        }
        let name = file.txt(i);
        // `let [mut] name = Type::new(...)` (also `Arc::new(Type::new(..))`
        // is skipped — only the first type ident after `=` counts, and
        // `Arc` classifies as nothing).
        if name == "let" {
            let mut j = i + 1;
            if file.is_ident(j) && file.txt(j) == "mut" {
                j += 1;
            }
            if file.is_ident(j) && file.is_punct(j + 1, '=') && file.is_ident(j + 2) {
                let bound = file.txt(j);
                let ty = file.txt(j + 2);
                classify_type_ident(bound, ty, decls);
                if ty.chars().next().is_some_and(char::is_uppercase) {
                    decls
                        .typed
                        .entry((file_idx, bound.to_string()))
                        .or_default()
                        .insert(ty.to_string());
                }
            }
            continue;
        }
        // `name : Type…` — a field, parameter, static, or typed let. The
        // `:` must not be half of `::`.
        if !file.is_punct(i + 1, ':') || file.is_punct(i + 2, ':') || file.is_punct(i - 1, ':') {
            continue;
        }
        // Scan a bounded window of the type expression for a known
        // wrapper name, stopping at clear declaration terminators.
        let mut angle = 0i32;
        for j in (i + 2)..n.min(i + 2 + 24) {
            let t = &file.toks[j];
            match t.kind {
                TokKind::Punct => match t.text(file.text) {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "," | ";" | ")" | "}" | "=" | "{" if angle <= 0 => break,
                    _ => {}
                },
                TokKind::Ident => {
                    let ty = t.text(file.text);
                    classify_type_ident(name, ty, decls);
                    if ty.chars().next().is_some_and(char::is_uppercase) {
                        decls
                            .typed
                            .entry((file_idx, name.to_string()))
                            .or_default()
                            .insert(ty.to_string());
                    }
                }
                _ => {}
            }
        }
    }
}

/// Harvest `let [mut] a = [&[mut]] simple.place.expr;` aliases whose
/// final identifier is an already-known lock/condvar/atomic, extending
/// the membership sets and the canonical-name map. Returns whether any
/// new alias was learned (callers iterate to a fixpoint so chains like
/// `let a = &b; let c = &a;` resolve regardless of file order).
pub fn collect_aliases(file: &LexedFile<'_>, decls: &mut Decls) -> bool {
    let n = file.toks.len();
    let mut changed = false;
    for i in 0..n {
        if !(file.is_ident(i) && file.txt(i) == "let") {
            continue;
        }
        let mut j = i + 1;
        if file.is_ident(j) && file.txt(j) == "mut" {
            j += 1;
        }
        if !(file.is_ident(j) && file.is_punct(j + 1, '=')) {
            continue;
        }
        let alias = file.txt(j);
        // Walk the RHS: only place expressions (idents, `&`, `.`,
        // `::`, `mut`, index brackets) qualify — a `(` or `{` means a
        // call or construction, whose result is not the named thing.
        let mut last_ident: Option<&str> = None;
        let mut bracket = 0i32;
        let mut ok = false;
        for k in (j + 2)..n.min(j + 2 + 24) {
            let t = &file.toks[k];
            match t.kind {
                TokKind::Ident => {
                    let s = t.text(file.text);
                    if bracket == 0 && s != "mut" {
                        last_ident = Some(s);
                    }
                }
                TokKind::Num => {}
                TokKind::Punct => match t.text(file.text) {
                    ";" => {
                        ok = true;
                        break;
                    }
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "&" | "." | ":" | "*" => {}
                    _ => break,
                },
                _ => break,
            }
        }
        let Some(target) = last_ident else { continue };
        if !ok || target == alias {
            continue;
        }
        let canon_target = decls.canonical(target).to_string();
        let mut learned = false;
        if decls.locks.contains(&canon_target) {
            learned |= decls.locks.insert(alias.to_string());
        }
        if decls.condvars.contains(&canon_target) {
            learned |= decls.condvars.insert(alias.to_string());
        }
        if decls.atomics.contains(&canon_target) {
            learned |= decls.atomics.insert(alias.to_string());
        }
        if learned {
            decls.canon.insert(alias.to_string(), canon_target);
            changed = true;
        }
    }
    changed
}

/// Attribute text accumulated in front of an item, normalized to a
/// whitespace-free string for `cfg` sniffing.
fn attr_is_test_or_model(attr: &str) -> bool {
    let a: String = attr.chars().filter(|c| !c.is_whitespace()).collect();
    a.contains("cfg(test")
        || a.contains("(test,")
        || a.contains(",test)")
        || (a.contains("cmpi_model") && !a.contains("not(cmpi_model"))
}

struct Extractor<'a> {
    file: &'a LexedFile<'a>,
    file_idx: usize,
    decls: &'a Decls,
    /// Matching close index for every open `{`/`(`/`[`; usize::MAX when
    /// unmatched (runs to end of file).
    close_of: Vec<usize>,
    /// Brace depth at each token (before processing it).
    depth: Vec<usize>,
    out: Vec<FnInfo>,
}

pub fn extract_fns(file_idx: usize, file: &LexedFile<'_>, decls: &Decls) -> Vec<FnInfo> {
    let n = file.toks.len();
    let mut close_of = vec![usize::MAX; n];
    let mut depth = vec![0usize; n];
    let mut stack: Vec<(char, usize)> = Vec::new();
    let mut d = 0usize;
    #[allow(clippy::needless_range_loop)] // `i` also feeds txt()/close_of writes
    for i in 0..n {
        depth[i] = d;
        if file.toks[i].kind != TokKind::Punct {
            continue;
        }
        match file.txt(i) {
            "{" => {
                stack.push(('{', i));
                d += 1;
            }
            "(" => stack.push(('(', i)),
            "[" => stack.push(('[', i)),
            "}" => {
                d = d.saturating_sub(1);
                // Pop through any unclosed ( / [ (lexer junk tolerance).
                while let Some((k, at)) = stack.pop() {
                    if k == '{' {
                        close_of[at] = i;
                        break;
                    }
                    close_of[at] = i;
                }
            }
            ")" => {
                if let Some(&(k, at)) = stack.last() {
                    if k == '(' {
                        stack.pop();
                        close_of[at] = i;
                    }
                }
            }
            "]" => {
                if let Some(&(k, at)) = stack.last() {
                    if k == '[' {
                        stack.pop();
                        close_of[at] = i;
                    }
                }
            }
            _ => {}
        }
    }
    let mut ex = Extractor {
        file,
        file_idx,
        decls,
        close_of,
        depth,
        out: Vec::new(),
    };
    ex.parse_items(0, n, None, false);
    ex.out
}

impl<'a> Extractor<'a> {
    fn close(&self, open: usize) -> usize {
        let c = self.close_of[open];
        if c == usize::MAX {
            self.file.toks.len()
        } else {
            c
        }
    }

    /// Scan `lo..hi` for items; `impl_type` is the enclosing impl/trait
    /// type, `in_test` marks `#[cfg(test)]`-style subtrees to skip.
    fn parse_items(&mut self, lo: usize, hi: usize, impl_type: Option<&str>, in_test: bool) {
        let mut i = lo;
        let mut pending_attr = String::new();
        while i < hi {
            // Attributes: `#[...]` / `#![...]`.
            if self.file.is_punct(i, '#') {
                let mut j = i + 1;
                if self.file.is_punct(j, '!') {
                    j += 1;
                }
                if self.file.is_punct(j, '[') {
                    let end = self.close(j);
                    for k in j..=end.min(self.file.toks.len().saturating_sub(1)) {
                        pending_attr.push_str(self.file.txt(k));
                    }
                    i = end + 1;
                    continue;
                }
                i += 1;
                continue;
            }
            if !self.file.is_ident(i) {
                i += 1;
                continue;
            }
            let kw = self.file.txt(i);
            match kw {
                "impl" | "trait" => {
                    let skip = in_test || attr_is_test_or_model(&pending_attr);
                    pending_attr.clear();
                    let (ty, body_open) = self.parse_impl_header(i, hi, kw == "trait");
                    match body_open {
                        Some(open) => {
                            let end = self.close(open);
                            self.parse_items(open + 1, end, ty.as_deref(), skip || in_test);
                            i = end + 1;
                        }
                        None => i += 1,
                    }
                }
                "mod" => {
                    let test = in_test
                        || attr_is_test_or_model(&pending_attr)
                        || (!pending_attr.is_empty()
                            && self.file.is_ident(i + 1)
                            && matches!(self.file.txt(i + 1), "tests" | "model_tests"));
                    pending_attr.clear();
                    // `mod name;` or `mod name { … }`.
                    let mut j = i + 1;
                    while j < hi && !self.file.is_punct(j, '{') && !self.file.is_punct(j, ';') {
                        j += 1;
                    }
                    if j < hi && self.file.is_punct(j, '{') {
                        let end = self.close(j);
                        self.parse_items(j + 1, end, impl_type, test);
                        i = end + 1;
                    } else {
                        i = j + 1;
                    }
                }
                "macro_rules" => {
                    pending_attr.clear();
                    let mut j = i + 1;
                    while j < hi && !self.file.is_punct(j, '{') {
                        j += 1;
                    }
                    i = if j < hi { self.close(j) + 1 } else { hi };
                }
                "fn" => {
                    let skip = in_test || attr_is_test_or_model(&pending_attr);
                    pending_attr.clear();
                    if !self.file.is_ident(i + 1) {
                        i += 1;
                        continue;
                    }
                    let name = self.file.txt(i + 1).to_string();
                    let line = self.file.toks[i].line;
                    // Find the body `{` (or `;` for a bodiless decl).
                    let mut j = i + 2;
                    while j < hi && !self.file.is_punct(j, '{') && !self.file.is_punct(j, ';') {
                        j += 1;
                    }
                    if j >= hi || self.file.is_punct(j, ';') {
                        i = j + 1;
                        continue;
                    }
                    let end = self.close(j);
                    if !skip {
                        let mut info = FnInfo {
                            file: self.file_idx,
                            name,
                            impl_type: impl_type.map(str::to_string),
                            params_n: self.count_params(i + 2, j),
                            line,
                            calls: Vec::new(),
                            blocks: Vec::new(),
                            locks: Vec::new(),
                            atomics: Vec::new(),
                        };
                        self.scan_body(j + 1, end, &mut info);
                        self.out.push(info);
                    }
                    i = end + 1;
                }
                _ => {
                    pending_attr.clear();
                    i += 1;
                }
            }
        }
    }

    /// Count top-level items separated by `,` between `open` (a `(`,
    /// `[`, or after a call/fn name) and its matching close. Returns 0
    /// for empty parens.
    fn count_commas(&self, open: usize) -> usize {
        let end = self.close(open).min(self.file.toks.len());
        if open + 1 >= end {
            return 0;
        }
        let mut depth = 0i32;
        let mut commas = 0usize;
        for k in (open + 1)..end {
            if self.file.toks[k].kind != TokKind::Punct {
                continue;
            }
            match self.file.txt(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => commas += 1,
                _ => {}
            }
        }
        commas + 1
    }

    /// Non-`self` parameter count of a fn whose name ends before
    /// `after_name` and whose body opens at `body`. Skips leading
    /// generics (tolerating `Fn(..) -> X` bounds via `->` skipping).
    fn count_params(&self, after_name: usize, body: usize) -> usize {
        let mut j = after_name;
        if self.file.is_punct(j, '<') {
            let mut d = 1i32;
            j += 1;
            while j < body && d > 0 {
                if self.file.is_punct(j, '-') && self.file.is_punct(j + 1, '>') {
                    j += 2;
                    continue;
                }
                if self.file.is_punct(j, '<') {
                    d += 1;
                } else if self.file.is_punct(j, '>') {
                    d -= 1;
                }
                j += 1;
            }
        }
        if !self.file.is_punct(j, '(') {
            return 0;
        }
        let count = self.count_commas(j);
        if count == 0 {
            return 0;
        }
        // A leading `self` receiver (by itself or `&[mut] self` /
        // `self: …`) does not count toward call-site arity.
        let end = self.close(j).min(self.file.toks.len());
        let mut depth = 0i32;
        for k in (j + 1)..end {
            if self.file.toks[k].kind == TokKind::Punct {
                match self.file.txt(k) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => break,
                    _ => {}
                }
            } else if self.file.is_ident(k) && self.file.txt(k) == "self" {
                return count - 1;
            }
        }
        count
    }

    /// Parse an `impl`/`trait` header starting at `at` (the keyword).
    /// Returns the subject type name and the body-open token index.
    fn parse_impl_header(
        &self,
        at: usize,
        hi: usize,
        is_trait: bool,
    ) -> (Option<String>, Option<usize>) {
        let mut j = at + 1;
        // Skip leading generics `<...>`.
        if self.file.is_punct(j, '<') {
            let mut d = 1i32;
            j += 1;
            while j < hi && d > 0 {
                if self.file.is_punct(j, '<') {
                    d += 1;
                } else if self.file.is_punct(j, '>') {
                    d -= 1;
                }
                j += 1;
            }
        }
        let mut current: Vec<&str> = Vec::new();
        let mut after_for: Option<Vec<&str>> = None;
        while j < hi && !self.file.is_punct(j, '{') && !self.file.is_punct(j, ';') {
            if self.file.is_ident(j) {
                let t = self.file.txt(j);
                if t == "for" && !is_trait {
                    after_for = Some(Vec::new());
                } else if t == "where" {
                    break;
                } else {
                    match &mut after_for {
                        Some(v) => v.push(t),
                        None => current.push(t),
                    }
                }
            }
            j += 1;
        }
        while j < hi && !self.file.is_punct(j, '{') && !self.file.is_punct(j, ';') {
            j += 1;
        }
        let list = after_for.unwrap_or(current);
        let ty = list
            .iter()
            .find(|t| !matches!(**t, "crate" | "super" | "self" | "dyn" | "mut" | "const"))
            .map(|t| t.to_string());
        if j < hi && self.file.is_punct(j, '{') {
            (ty, Some(j))
        } else {
            (ty, None)
        }
    }

    /// Walk the receiver chain backwards from the token before a `.`
    /// and return the nearest nameable identifier.
    fn walk_receiver(&self, mut j: usize) -> Option<String> {
        loop {
            let t = self.file.toks.get(j)?;
            match t.kind {
                TokKind::Ident => {
                    let s = t.text(self.file.text);
                    return Some(s.to_string());
                }
                TokKind::Punct => match t.text(self.file.text) {
                    "]" | ")" => {
                        // Jump to the matching opener, then look left.
                        let open = (0..j).rev().find(|&k| self.close_of[k] == j)?;
                        if self.file.is_punct(open, '(') {
                            // `f(..).lock()` — receiver is a call result;
                            // nothing nameable.
                            return None;
                        }
                        j = open.checked_sub(1)?;
                    }
                    "?" => j = j.checked_sub(1)?,
                    _ => return None,
                },
                _ => return None,
            }
        }
    }

    /// Identifiers inside the argument parens opening at `open`.
    fn arg_idents(&self, open: usize) -> Vec<String> {
        let mut out = Vec::new();
        if !self.file.is_punct(open, '(') {
            return out;
        }
        let end = self.close(open);
        for k in (open + 1)..end.min(self.file.toks.len()) {
            if self.file.is_ident(k) {
                out.push(self.file.txt(k).to_string());
            }
        }
        out
    }

    /// Memory orderings named inside the argument parens.
    fn arg_orderings(&self, open: usize) -> Vec<Ord> {
        let mut out = Vec::new();
        if !self.file.is_punct(open, '(') {
            return out;
        }
        let end = self.close(open);
        for k in (open + 1)..end.min(self.file.toks.len()) {
            if self.file.is_ident(k) {
                if let Some(o) = Ord::parse(self.file.txt(k)) {
                    out.push(o);
                }
            }
        }
        out
    }

    /// End of the statement containing token `at`: the next `;` at a
    /// brace depth no greater than `at`'s, else the end of the
    /// enclosing block.
    fn stmt_end(&self, at: usize, hi: usize) -> usize {
        let d = self.depth[at];
        for j in at..hi {
            if self.file.is_punct(j, ';') && self.depth[j] <= d {
                return j;
            }
        }
        hi
    }

    /// End of the block enclosing token `at` (token index of its `}`),
    /// bounded by `hi`.
    fn block_end(&self, at: usize, hi: usize) -> usize {
        let d = self.depth[at];
        if d == 0 {
            return hi;
        }
        for j in at..hi {
            if self.file.is_punct(j, '}') && self.depth[j] == d {
                return j;
            }
        }
        hi
    }

    /// `let [mut] g = <receiver>.lock()` — find the guard binding for
    /// an acquisition whose statement starts somewhere left of `at`.
    fn guard_binding(&self, at: usize) -> Option<String> {
        // Walk back to the statement boundary.
        let mut j = at;
        while j > 0 {
            let t = &self.file.toks[j - 1];
            if t.kind == TokKind::Punct {
                let s = t.text(self.file.text);
                if s == ";" || s == "{" || s == "}" {
                    break;
                }
            }
            j -= 1;
        }
        if self.file.is_ident(j) && self.file.txt(j) == "let" {
            let mut k = j + 1;
            if self.file.is_ident(k) && self.file.txt(k) == "mut" {
                k += 1;
            }
            if self.file.is_ident(k) && self.file.is_punct(k + 1, '=') {
                return Some(self.file.txt(k).to_string());
            }
        }
        None
    }

    /// Explicit `drop(g)` after `at` inside `hi`, if any.
    fn drop_of(&self, guard: &str, at: usize, hi: usize) -> Option<usize> {
        (at..hi).find(|&j| {
            self.file.is_ident(j)
                && self.file.txt(j) == "drop"
                && self.file.is_punct(j + 1, '(')
                && self.file.is_ident(j + 2)
                && self.file.txt(j + 2) == guard
                && self.file.is_punct(j + 3, ')')
        })
    }

    /// Scan a function body for calls, blocking sites, lock
    /// acquisitions, and atomic operations.
    fn scan_body(&mut self, lo: usize, hi: usize, info: &mut FnInfo) {
        let hi = hi.min(self.file.toks.len());
        let mut i = lo;
        while i < hi {
            if self.file.is_ident(i) && self.file.txt(i) == "macro_rules" {
                let mut j = i + 1;
                while j < hi && !self.file.is_punct(j, '{') {
                    j += 1;
                }
                i = if j < hi { self.close(j) + 1 } else { hi };
                continue;
            }
            if !(self.file.is_ident(i) && self.file.is_punct(i + 1, '(')) {
                i += 1;
                continue;
            }
            let name = self.file.txt(i);
            if KEYWORDS.contains(&name) {
                i += 1;
                continue;
            }
            // `fn name(` — a nested definition header, not a call.
            if i > lo && self.file.is_ident(i - 1) && self.file.txt(i - 1) == "fn" {
                i += 1;
                continue;
            }
            let line = self.file.toks[i].line;
            let method = i > 0 && self.file.is_punct(i - 1, '.');
            let qual = if i >= 3
                && self.file.is_punct(i - 1, ':')
                && self.file.is_punct(i - 2, ':')
                && self.file.is_ident(i - 3)
            {
                Some(self.file.txt(i - 3).to_string())
            } else {
                None
            };
            let recv = if method {
                i.checked_sub(2).and_then(|j| self.walk_receiver(j))
            } else {
                None
            };
            let args_n = self.count_commas(i + 1);

            let recv_is = |set: &BTreeSet<String>| recv.as_ref().is_some_and(|r| set.contains(r));

            // Blocking primitives.
            let block_kind = if WAIT_METHODS.contains(&name)
                && (recv_is(&self.decls.condvars) || qual.as_deref() == Some("Condvar"))
            {
                Some(BlockKind::CondvarWait)
            } else if name == "sleep" && qual.as_deref() == Some("thread") {
                Some(BlockKind::ThreadSleep)
            } else if matches!(name, "park" | "park_timeout") && qual.as_deref() == Some("thread") {
                Some(BlockKind::ThreadPark)
            } else if matches!(name, "recv" | "recv_timeout") && recv_is(&self.decls.receivers) {
                Some(BlockKind::ChanRecv)
            } else if name == "join" && recv_is(&self.decls.join_handles) {
                Some(BlockKind::ThreadJoin)
            } else {
                None
            };
            if let Some(kind) = block_kind {
                let what = match &recv {
                    Some(r) => format!("{r}.{name}"),
                    None => match &qual {
                        Some(q) => format!("{q}::{name}"),
                        None => name.to_string(),
                    },
                };
                info.blocks.push(BlockSite {
                    kind,
                    what,
                    line,
                    tok: i,
                    args: self.arg_idents(i + 1),
                });
                i += 2;
                continue;
            }

            // Lock acquisitions. Zero-arg `.lock()`/`.read()`/`.write()`
            // on any nameable receiver is a lock acquisition — the std /
            // parking_lot blocking acquisitions take no arguments, while
            // same-named I/O or MR methods all take at least one. This
            // also catches locks reached through closure params the decl
            // sets cannot see.
            let lockish = recv_is(&self.decls.locks)
                || match recv
                    .as_ref()
                    .and_then(|r| self.decls.typed_of(self.file_idx, self.decls.canonical(r)))
                {
                    Some(tys) => tys.iter().any(|t| matches!(t.as_str(), "Mutex" | "RwLock")),
                    // Unknown receiver (closure param, pattern binding):
                    // assume lock — conservative for the taint pass.
                    None => recv.is_some(),
                };
            if LOCK_METHODS.contains(&name) && method && args_n == 0 && lockish {
                let guard = self.guard_binding(i);
                let region_end = match &guard {
                    Some(g) => self
                        .drop_of(g, i, hi)
                        .unwrap_or_else(|| self.block_end(i, hi)),
                    None => self.stmt_end(i, hi),
                };
                let raw = recv.clone().unwrap_or_default();
                info.locks.push(LockSite {
                    lock: self.decls.canonical(&raw).to_string(),
                    line,
                    tok: i,
                    region_end,
                    guard,
                });
                i += 2;
                continue;
            }
            // Non-blocking lock probes: neither a blocking site nor a
            // call edge worth following.
            if NONBLOCK_LOCK_METHODS.contains(&name) && method && args_n == 0 && lockish {
                i += 2;
                continue;
            }

            // Condvar notifies are not calls into workspace code.
            if matches!(name, "notify_one" | "notify_all") && recv_is(&self.decls.condvars) {
                i += 2;
                continue;
            }

            // Atomic operations.
            if ATOMIC_OPS.contains(&name) && recv_is(&self.decls.atomics) {
                let ords = self.arg_orderings(i + 1);
                let first = ords.first().copied();
                let second = ords.get(1).copied();
                let (load_ord, store_ord) = match name {
                    "load" => (first, None),
                    "store" => (None, first),
                    "compare_exchange" | "compare_exchange_weak" => {
                        // Success ordering acts on both sides; the
                        // (weaker) failure ordering only loads.
                        let succ = ords.len().checked_sub(2).and_then(|k| ords.get(k)).copied();
                        (succ, succ)
                    }
                    "fetch_update" => (second.or(first), first),
                    _ => (first, first),
                };
                let raw = recv.clone().unwrap_or_default();
                info.atomics.push(AtomicOp {
                    field: self.decls.canonical(&raw).to_string(),
                    op: name.to_string(),
                    load_ord,
                    store_ord,
                    line,
                });
                i += 2;
                continue;
            }

            info.calls.push(Call {
                name: name.to_string(),
                qual,
                method,
                recv,
                args_n,
                line,
                tok: i,
            });
            i += 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_file(src: &str) -> (Decls, Vec<FnInfo>) {
        let lexed = LexedFile::new(src);
        let mut decls = Decls::default();
        collect_decls(0, &lexed, &mut decls);
        let fns = extract_fns(0, &lexed, &decls);
        (decls, fns)
    }

    #[test]
    fn decls_classify_fields_statics_params_and_lets() {
        let src = r#"
            struct S { cv: Condvar, m: Mutex<u32>, rw: RwLock<Vec<u8>> }
            static PENDING: AtomicUsize = AtomicUsize::new(0);
            fn f(rx: Receiver<u32>, h: JoinHandle<()>) {
                let local = Mutex::new(3);
            }
        "#;
        let (d, _) = one_file(src);
        assert!(d.condvars.contains("cv"));
        assert!(d.locks.contains("m") && d.locks.contains("rw"));
        assert!(d.locks.contains("local"));
        assert!(d.atomics.contains("PENDING"));
        assert!(d.receivers.contains("rx"));
        assert!(d.join_handles.contains("h"));
        // Paths like `a::b` must not classify `a` via the second `:`.
        assert!(!d.atomics.contains("Relaxed"));
    }

    #[test]
    fn fns_get_impl_types_and_trait_impls_use_the_self_type() {
        let src = r#"
            impl PairQueue { fn acquire(&self) {} }
            impl std::fmt::Debug for PairQueue { fn fmt(&self) {} }
            impl<T: Clone> Wrap<T> { fn get(&self) {} }
            trait Helper { fn assist(&self) { noop(); } fn decl_only(&self); }
            fn free() {}
        "#;
        let (_, fns) = one_file(src);
        let names: Vec<(Option<&str>, &str)> = fns
            .iter()
            .map(|f| (f.impl_type.as_deref(), f.name.as_str()))
            .collect();
        assert_eq!(
            names,
            vec![
                (Some("PairQueue"), "acquire"),
                (Some("PairQueue"), "fmt"),
                (Some("Wrap"), "get"),
                (Some("Helper"), "assist"),
                (None, "free"),
            ]
        );
    }

    #[test]
    fn test_modules_and_cfg_test_fns_are_skipped() {
        let src = r#"
            fn real() {}
            #[cfg(test)]
            mod tests { fn helper() {} #[test] fn t() {} }
            #[cfg(test)]
            fn only_in_tests() {}
            #[cfg(not(cmpi_model))]
            fn kept() {}
        "#;
        let (_, fns) = one_file(src);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["real", "kept"]);
    }

    #[test]
    fn blocking_sites_need_declared_receivers() {
        let src = r#"
            struct S { cv: Condvar, state: Mutex<u32> }
            impl S {
                fn blocks(&self) {
                    let mut g = self.state.lock();
                    self.cv.wait(&mut g);
                    std::thread::sleep(dur);
                }
                fn benign(&self, mpi: &Mpi, req: Req) {
                    mpi.wait(req);
                }
            }
        "#;
        let (_, fns) = one_file(src);
        let blocks: Vec<(&str, BlockKind)> = fns[0]
            .blocks
            .iter()
            .map(|b| (b.what.as_str(), b.kind))
            .collect();
        assert_eq!(
            blocks,
            vec![
                ("cv.wait", BlockKind::CondvarWait),
                ("thread::sleep", BlockKind::ThreadSleep),
            ]
        );
        // The condvar wait's argument names the guard it releases.
        assert!(fns[0].blocks[0].args.contains(&"g".to_string()));
        // `mpi.wait` is an ordinary call edge, not a blocking site.
        assert!(fns[1].blocks.is_empty());
        assert!(fns[1].calls.iter().any(|c| c.name == "wait" && c.method));
    }

    #[test]
    fn lock_sites_track_guards_regions_and_chained_receivers() {
        let src = r#"
            struct P { queues: Vec<Mutex<u32>>, idle: Mutex<u32> }
            impl P {
                fn enqueue(&self, i: usize) {
                    self.queues[i].lock().push_back(i);
                    if self.idle.lock().parked > 0 { self.wakeup(); }
                }
                fn held(&self) {
                    let g = self.idle.lock();
                    self.helper();
                    drop(g);
                    self.after();
                }
            }
        "#;
        let (_, fns) = one_file(src);
        let enqueue = &fns[0];
        assert_eq!(enqueue.locks.len(), 2);
        assert_eq!(enqueue.locks[0].lock, "queues");
        assert!(enqueue.locks[0].guard.is_none());
        // The temporary's region ends at its own `;` — before the
        // second acquisition.
        assert!(enqueue.locks[0].region_end < enqueue.locks[1].tok);
        let held = &fns[1];
        assert_eq!(held.locks[0].guard.as_deref(), Some("g"));
        // drop(g) closes the region before `after` is called.
        let after = held.calls.iter().find(|c| c.name == "after").unwrap();
        let helper = held.calls.iter().find(|c| c.name == "helper").unwrap();
        assert!(helper.tok < held.locks[0].region_end);
        assert!(after.tok > held.locks[0].region_end);
    }

    #[test]
    fn atomic_ops_record_orderings_per_side() {
        let src = r#"
            struct S { seq: AtomicU64 }
            impl S {
                fn ops(&self) {
                    self.seq.store(1, Ordering::Release);
                    let _ = self.seq.load(Ordering::Acquire);
                    self.seq.fetch_add(1, Ordering::Relaxed);
                    self.seq.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed);
                }
            }
        "#;
        let (_, fns) = one_file(src);
        let ops = &fns[0].atomics;
        assert_eq!(ops[0].store_ord, Some(Ord::Release));
        assert_eq!(ops[0].load_ord, None);
        assert_eq!(ops[1].load_ord, Some(Ord::Acquire));
        assert_eq!(ops[2].load_ord, Some(Ord::Relaxed));
        assert_eq!(ops[2].store_ord, Some(Ord::Relaxed));
        assert_eq!(ops[3].store_ord, Some(Ord::AcqRel));
    }

    #[test]
    fn qualified_calls_keep_their_qualifier() {
        let src = "fn f() { thread::sleep(d); pantry::give(x); Endpoint::new(); }";
        let (_, fns) = one_file(src);
        // thread::sleep is a blocking site, the rest are calls.
        assert_eq!(fns[0].blocks.len(), 1);
        let calls: Vec<(Option<&str>, &str)> = fns[0]
            .calls
            .iter()
            .map(|c| (c.qual.as_deref(), c.name.as_str()))
            .collect();
        assert_eq!(
            calls,
            vec![(Some("pantry"), "give"), (Some("Endpoint"), "new")]
        );
    }
}
