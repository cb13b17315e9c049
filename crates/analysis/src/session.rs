//! Session-typed protocol specs: a small declarative language for global
//! MPI protocols, instantiation at a concrete world size, projection to
//! per-rank local types, and compilation of local types to NFAs the
//! conformance checker walks.
//!
//! The language (one declaration or statement per construct, `#` starts a
//! comment):
//!
//! ```text
//! protocol matmul            # optional display name
//! role master = 0            # singleton role
//! role worker = 1..np        # half-open range family
//! role edge   = {0, np-1}    # explicit set family
//! tag WORK = 10              # named tag
//! skip collectives           # conformance ignores collective ops
//!
//! collective bcast           # every rank calls it ("bcast" also matches
//!                            # the trace's "bcast_u64"-style suffixes)
//! msg master -> w : WORK     # point-to-point (w = foreach variable)
//! msg any worker -> master : RESULT   # some family member sends
//! choice { ... } or { ... }  # internal choice between branches
//! loop { ... }               # zero or more repetitions
//! repeat np-1 { ... }        # exactly n repetitions (n known at np)
//! foreach w in worker { ... }# unrolled over members, ascending
//! ```
//!
//! **Projection** compiles the global type to one local type per rank:
//! a `msg a -> b` between concrete roles is a mandatory send at `a` and a
//! mandatory receive at `b`; `any F` makes the family side *optional*
//! (each member may or may not be the one chosen) while the concrete side
//! stays mandatory with the whole family as its peer set. Collectives
//! project to every rank. The local type is compiled to an NFA (Thompson
//! construction; choice and loops become epsilon structure) so the
//! conformance walk can absorb iteration-boundary ambiguity by subset
//! simulation instead of committing to one parse of the trace.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dampi_mpi::Tag;

/// True when a trace collective name satisfies a spec collective name:
/// exact match, or the spec name is a `_`-separated prefix (so the spec's
/// `allreduce` covers the trace's `allreduce_u64` and `allreduce_f64`).
#[must_use]
pub fn collective_matches(spec_name: &str, trace_name: &str) -> bool {
    trace_name == spec_name
        || (trace_name.len() > spec_name.len()
            && trace_name.starts_with(spec_name)
            && trace_name.as_bytes()[spec_name.len()] == b'_')
}

// ---- Parsed (pre-instantiation) AST ---------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Num {
    Lit(i64),
    Np,
}

/// A `+`/`-` chain over integer literals and `np`, e.g. `np-1`.
#[derive(Debug, Clone)]
struct NumExpr(Vec<(i64, Num)>);

impl NumExpr {
    fn eval(&self, np: usize) -> i64 {
        self.0
            .iter()
            .map(|(sign, n)| {
                sign * match n {
                    Num::Lit(v) => *v,
                    Num::Np => np as i64,
                }
            })
            .sum()
    }
}

#[derive(Debug, Clone)]
enum RoleSetExpr {
    Single(NumExpr),
    Range(NumExpr, NumExpr),
    Set(Vec<NumExpr>),
}

#[derive(Debug, Clone)]
enum PeerExpr {
    Named(String),
    Any(String),
}

#[derive(Debug, Clone)]
enum TagExpr {
    Lit(Tag),
    Named(String),
}

#[derive(Debug, Clone)]
enum Stmt {
    Msg {
        from: PeerExpr,
        to: PeerExpr,
        tag: TagExpr,
    },
    Collective(String),
    Choice(Vec<Vec<Stmt>>),
    Loop(Vec<Stmt>),
    Repeat(NumExpr, Vec<Stmt>),
    Foreach(String, String, Vec<Stmt>),
}

// ---- Tokenizer ------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Arrow,
    Colon,
    LBrace,
    RBrace,
    Eq,
    DotDot,
    Comma,
    Plus,
    Minus,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "`{v}`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::Colon => write!(f, "`:`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::DotDot => write!(f, "`..`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
        }
    }
}

fn lex(text: &str) -> Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let mut it = text.chars().peekable();
    while let Some(&c) = it.peek() {
        match c {
            '#' => {
                for c in it.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            }
            c if c.is_whitespace() => {
                it.next();
            }
            '-' => {
                it.next();
                if it.peek() == Some(&'>') {
                    it.next();
                    out.push(Tok::Arrow);
                } else {
                    out.push(Tok::Minus);
                }
            }
            '.' => {
                it.next();
                if it.next() == Some('.') {
                    out.push(Tok::DotDot);
                } else {
                    return Err("protocol parse error: expected `..`".into());
                }
            }
            ':' => {
                it.next();
                out.push(Tok::Colon);
            }
            '{' => {
                it.next();
                out.push(Tok::LBrace);
            }
            '}' => {
                it.next();
                out.push(Tok::RBrace);
            }
            '=' => {
                it.next();
                out.push(Tok::Eq);
            }
            ',' => {
                it.next();
                out.push(Tok::Comma);
            }
            '+' => {
                it.next();
                out.push(Tok::Plus);
            }
            c if c.is_ascii_digit() => {
                let mut v: i64 = 0;
                while let Some(&d) = it.peek() {
                    if let Some(digit) = d.to_digit(10) {
                        v = v
                            .checked_mul(10)
                            .and_then(|v| v.checked_add(i64::from(digit)))
                            .ok_or_else(|| "protocol parse error: integer overflow".to_string())?;
                        it.next();
                    } else {
                        break;
                    }
                }
                out.push(Tok::Int(v));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = it.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        s.push(d);
                        it.next();
                    } else {
                        break;
                    }
                }
                out.push(Tok::Ident(s));
            }
            other => return Err(format!("protocol parse error: unexpected `{other}`")),
        }
    }
    Ok(out)
}

// ---- Parser ---------------------------------------------------------------

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok, String> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| "protocol parse error: unexpected end of spec".to_string())?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: &Tok) -> Result<(), String> {
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(format!("protocol parse error: expected {want}, got {got}"))
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(format!(
                "protocol parse error: expected identifier, got {other}"
            )),
        }
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn num_atom(&mut self) -> Result<Num, String> {
        match self.next()? {
            Tok::Int(v) => Ok(Num::Lit(v)),
            Tok::Ident(s) if s == "np" => Ok(Num::Np),
            other => Err(format!(
                "protocol parse error: expected integer or `np`, got {other}"
            )),
        }
    }

    fn num_expr(&mut self) -> Result<NumExpr, String> {
        let mut terms = vec![(1, self.num_atom()?)];
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.pos += 1;
                    terms.push((1, self.num_atom()?));
                }
                Some(Tok::Minus) => {
                    self.pos += 1;
                    terms.push((-1, self.num_atom()?));
                }
                _ => break,
            }
        }
        Ok(NumExpr(terms))
    }

    fn role_set(&mut self) -> Result<RoleSetExpr, String> {
        if self.peek() == Some(&Tok::LBrace) {
            self.pos += 1;
            let mut members = vec![self.num_expr()?];
            while self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
                members.push(self.num_expr()?);
            }
            self.expect(&Tok::RBrace)?;
            return Ok(RoleSetExpr::Set(members));
        }
        let lo = self.num_expr()?;
        if self.peek() == Some(&Tok::DotDot) {
            self.pos += 1;
            let hi = self.num_expr()?;
            Ok(RoleSetExpr::Range(lo, hi))
        } else {
            Ok(RoleSetExpr::Single(lo))
        }
    }

    fn peer(&mut self) -> Result<PeerExpr, String> {
        if self.peek_kw("any") {
            self.pos += 1;
            Ok(PeerExpr::Any(self.ident()?))
        } else {
            Ok(PeerExpr::Named(self.ident()?))
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, String> {
        self.expect(&Tok::LBrace)?;
        let mut body = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            if self.peek().is_none() {
                return Err("protocol parse error: unclosed `{`".into());
            }
            body.push(self.stmt()?);
        }
        self.pos += 1;
        Ok(body)
    }

    fn stmt(&mut self) -> Result<Stmt, String> {
        let kw = self.ident()?;
        match kw.as_str() {
            "msg" => {
                let from = self.peer()?;
                self.expect(&Tok::Arrow)?;
                let to = self.peer()?;
                self.expect(&Tok::Colon)?;
                let tag = match self.next()? {
                    Tok::Int(v) => TagExpr::Lit(v as Tag),
                    Tok::Ident(s) => TagExpr::Named(s),
                    other => {
                        return Err(format!(
                            "protocol parse error: expected tag after `:`, got {other}"
                        ))
                    }
                };
                Ok(Stmt::Msg { from, to, tag })
            }
            "collective" => Ok(Stmt::Collective(self.ident()?)),
            "choice" => {
                let mut branches = vec![self.block()?];
                while self.peek_kw("or") {
                    self.pos += 1;
                    branches.push(self.block()?);
                }
                Ok(Stmt::Choice(branches))
            }
            "loop" => Ok(Stmt::Loop(self.block()?)),
            "repeat" => {
                let n = self.num_expr()?;
                Ok(Stmt::Repeat(n, self.block()?))
            }
            "foreach" => {
                let var = self.ident()?;
                let kw = self.ident()?;
                if kw != "in" {
                    return Err(format!(
                        "protocol parse error: expected `in` after foreach variable, got `{kw}`"
                    ));
                }
                let family = self.ident()?;
                Ok(Stmt::Foreach(var, family, self.block()?))
            }
            other => Err(format!(
                "protocol parse error: unknown statement `{other}` \
                 (expected msg/collective/choice/loop/repeat/foreach)"
            )),
        }
    }
}

// ---- The spec -------------------------------------------------------------

/// A parsed protocol spec: role and tag declarations plus the global-type
/// body, ready to instantiate at any world size.
#[derive(Debug, Clone)]
pub struct ProtocolSpec {
    /// Display name from the `protocol` line (defaults to `"protocol"`).
    pub name: String,
    /// When true, the conformance walk ignores collective trace ops (for
    /// protocols whose point-to-point structure does not interleave
    /// atomically with barriers, e.g. producers sending *before* a
    /// barrier that consumers receive *after*).
    pub skip_collectives: bool,
    roles: Vec<(String, RoleSetExpr)>,
    tags: BTreeMap<String, Tag>,
    body: Vec<Stmt>,
    source: String,
}

impl ProtocolSpec {
    /// Parse a spec from its textual form.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser {
            toks: lex(text)?,
            pos: 0,
        };
        let mut spec = Self {
            name: "protocol".to_string(),
            skip_collectives: false,
            roles: Vec::new(),
            tags: BTreeMap::new(),
            body: Vec::new(),
            source: text.to_string(),
        };
        while p.peek().is_some() {
            if p.peek_kw("protocol") {
                p.pos += 1;
                spec.name = p.ident()?;
            } else if p.peek_kw("role") {
                p.pos += 1;
                let name = p.ident()?;
                p.expect(&Tok::Eq)?;
                let set = p.role_set()?;
                if spec.roles.iter().any(|(n, _)| n == &name) {
                    return Err(format!("protocol error: role `{name}` declared twice"));
                }
                spec.roles.push((name, set));
            } else if p.peek_kw("tag") {
                p.pos += 1;
                let name = p.ident()?;
                p.expect(&Tok::Eq)?;
                let Tok::Int(v) = p.next()? else {
                    return Err(format!(
                        "protocol error: tag `{name}` needs an integer value"
                    ));
                };
                spec.tags.insert(name, v as Tag);
            } else if p.peek_kw("skip") {
                p.pos += 1;
                let what = p.ident()?;
                if what != "collectives" {
                    return Err(format!("protocol error: cannot skip `{what}`"));
                }
                spec.skip_collectives = true;
            } else {
                let stmt = p.stmt()?;
                spec.body.push(stmt);
            }
        }
        Ok(spec)
    }

    /// FNV-1a digest of the spec source text — the `spec_digest` stamped
    /// into analyzer reports so a plan can be matched to the spec that
    /// produced it.
    #[must_use]
    pub fn digest(&self) -> u64 {
        dampi_mpi::fnv1a64(self.source.as_bytes())
    }

    /// Instantiate the global type at a concrete world size: resolve
    /// roles and tags, unroll `repeat`/`foreach`, and validate every rank
    /// reference against `nprocs`.
    pub fn instantiate(&self, nprocs: usize) -> Result<Global, String> {
        let mut roles: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
        for (name, set) in &self.roles {
            let eval = |e: &NumExpr| -> Result<usize, String> {
                let v = e.eval(nprocs);
                if v < 0 || v as usize >= nprocs {
                    return Err(format!(
                        "protocol error: role `{name}` member {v} out of range for np={nprocs}"
                    ));
                }
                Ok(v as usize)
            };
            let members: BTreeSet<usize> = match set {
                RoleSetExpr::Single(e) => BTreeSet::from([eval(e)?]),
                RoleSetExpr::Set(es) => es.iter().map(&eval).collect::<Result<_, _>>()?,
                RoleSetExpr::Range(lo, hi) => {
                    let (l, h) = (lo.eval(nprocs), hi.eval(nprocs));
                    if l < 0 || h > nprocs as i64 || l > h {
                        return Err(format!(
                            "protocol error: role `{name}` range {l}..{h} invalid for np={nprocs}"
                        ));
                    }
                    (l as usize..h as usize).collect()
                }
            };
            // Roles may overlap (a family can alias singletons, e.g.
            // `worker = {1, 2}` next to `left = 1`); what must be
            // disjoint are the two endpoints of any one message, checked
            // per-message during lowering.
            roles.insert(name.clone(), members);
        }
        let mut ctx = Ctx {
            np: nprocs,
            roles,
            tags: &self.tags,
            vars: BTreeMap::new(),
        };
        Ok(Global::Seq(lower_body(&self.body, &mut ctx)?))
    }
}

struct Ctx<'a> {
    np: usize,
    roles: BTreeMap<String, BTreeSet<usize>>,
    tags: &'a BTreeMap<String, Tag>,
    vars: BTreeMap<String, usize>,
}

impl Ctx<'_> {
    fn peers(&self, p: &PeerExpr) -> Result<Peers, String> {
        match p {
            PeerExpr::Named(name) => {
                if let Some(&rank) = self.vars.get(name) {
                    return Ok(Peers::One(rank));
                }
                let members = self
                    .roles
                    .get(name)
                    .ok_or_else(|| format!("protocol error: unknown role `{name}`"))?;
                if members.len() == 1 {
                    Ok(Peers::One(*members.iter().next().expect("singleton")))
                } else {
                    Err(format!(
                        "protocol error: role `{name}` has {} members; use `any {name}` \
                         or a foreach variable",
                        members.len()
                    ))
                }
            }
            PeerExpr::Any(name) => {
                let members = self
                    .roles
                    .get(name)
                    .ok_or_else(|| format!("protocol error: unknown role `{name}`"))?;
                if members.is_empty() {
                    return Err(format!(
                        "protocol error: role `{name}` is empty at np={}",
                        self.np
                    ));
                }
                Ok(Peers::Any(members.clone()))
            }
        }
    }

    fn tag(&self, t: &TagExpr) -> Result<Tag, String> {
        match t {
            TagExpr::Lit(v) => Ok(*v),
            TagExpr::Named(name) => self
                .tags
                .get(name)
                .copied()
                .ok_or_else(|| format!("protocol error: unknown tag `{name}`")),
        }
    }
}

fn lower_body(body: &[Stmt], ctx: &mut Ctx<'_>) -> Result<Vec<Global>, String> {
    let mut out = Vec::new();
    for stmt in body {
        match stmt {
            Stmt::Msg { from, to, tag } => {
                let (from, to) = (ctx.peers(from)?, ctx.peers(to)?);
                // Distinct-party checks: a family message must pin down
                // who is on the other side, so `any F -> b` with `b ∈ F`
                // (or overlapping families) is rejected.
                let overlap = match (&from, &to) {
                    (Peers::One(_), Peers::One(_)) => false, // self-msg OK
                    (Peers::Any(f), Peers::One(b)) | (Peers::One(b), Peers::Any(f)) => {
                        f.contains(b)
                    }
                    (Peers::Any(f), Peers::Any(g)) => !f.is_disjoint(g),
                };
                if overlap {
                    return Err(
                        "protocol error: message endpoints overlap (a rank cannot be \
                         both the `any` family and the other side)"
                            .into(),
                    );
                }
                out.push(Global::Msg {
                    from,
                    to,
                    tag: ctx.tag(tag)?,
                });
            }
            Stmt::Collective(name) => out.push(Global::Collective(name.clone())),
            Stmt::Choice(branches) => {
                let bs = branches
                    .iter()
                    .map(|b| Ok(Global::Seq(lower_body(b, ctx)?)))
                    .collect::<Result<Vec<_>, String>>()?;
                out.push(Global::Choice(bs));
            }
            Stmt::Loop(body) => {
                out.push(Global::Loop(Box::new(Global::Seq(lower_body(body, ctx)?))));
            }
            Stmt::Repeat(n, body) => {
                let n = n.eval(ctx.np);
                if !(0..=1024).contains(&n) {
                    return Err(format!("protocol error: repeat count {n} out of range"));
                }
                for _ in 0..n {
                    out.extend(lower_body(body, ctx)?);
                }
            }
            Stmt::Foreach(var, family, body) => {
                if ctx.vars.contains_key(var) {
                    return Err(format!("protocol error: foreach variable `{var}` shadowed"));
                }
                let members: Vec<usize> = ctx
                    .roles
                    .get(family)
                    .ok_or_else(|| format!("protocol error: unknown role `{family}`"))?
                    .iter()
                    .copied()
                    .collect();
                for m in members {
                    ctx.vars.insert(var.clone(), m);
                    let lowered = lower_body(body, ctx);
                    ctx.vars.remove(var);
                    out.extend(lowered?);
                }
            }
        }
    }
    Ok(out)
}

// ---- Instantiated global type ---------------------------------------------

/// A message endpoint after instantiation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Peers {
    /// A single concrete rank.
    One(usize),
    /// Any member of a role family.
    Any(BTreeSet<usize>),
}

impl Peers {
    /// The set of world ranks this endpoint may be.
    #[must_use]
    pub fn ranks(&self) -> BTreeSet<usize> {
        match self {
            Peers::One(r) => BTreeSet::from([*r]),
            Peers::Any(s) => s.clone(),
        }
    }
}

/// The instantiated global type (roles resolved, loops bounded, families
/// unrolled where the spec iterated them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Global {
    /// Statements in order.
    Seq(Vec<Global>),
    /// A point-to-point message.
    Msg {
        /// Sender endpoint.
        from: Peers,
        /// Receiver endpoint.
        to: Peers,
        /// Concrete message tag.
        tag: Tag,
    },
    /// A collective every rank participates in.
    Collective(String),
    /// Internal choice between branches.
    Choice(Vec<Global>),
    /// Zero or more repetitions of the body.
    Loop(Box<Global>),
}

/// A per-rank local type obtained by projection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Local {
    /// Actions in order.
    Seq(Vec<Local>),
    /// Send a message with `tag` to one of `to`.
    Send {
        /// Admissible destination ranks.
        to: BTreeSet<usize>,
        /// Concrete message tag.
        tag: Tag,
    },
    /// Receive a message with `tag` from one of `from`.
    Recv {
        /// Admissible source ranks.
        from: BTreeSet<usize>,
        /// Concrete message tag.
        tag: Tag,
    },
    /// Participate in a collective.
    Collective(String),
    /// One of the branches.
    Choice(Vec<Local>),
    /// Zero or more repetitions.
    Loop(Box<Local>),
    /// Nothing (the rank is not involved).
    End,
}

impl Global {
    /// Project the global type onto one rank's local type.
    #[must_use]
    pub fn project(&self, rank: usize) -> Local {
        match self {
            Global::Seq(items) => Local::Seq(items.iter().map(|g| g.project(rank)).collect()),
            Global::Collective(name) => Local::Collective(name.clone()),
            Global::Choice(branches) => {
                Local::Choice(branches.iter().map(|g| g.project(rank)).collect())
            }
            Global::Loop(body) => Local::Loop(Box::new(body.project(rank))),
            Global::Msg { from, to, tag } => {
                let send = Local::Send {
                    to: to.ranks(),
                    tag: *tag,
                };
                let recv = Local::Recv {
                    from: from.ranks(),
                    tag: *tag,
                };
                let optional = |action: Local| Local::Choice(vec![action, Local::End]);
                let sender = match from {
                    Peers::One(a) if *a == rank => Some(send.clone()),
                    Peers::Any(f) if f.contains(&rank) => Some(optional(send)),
                    _ => None,
                };
                let receiver = match to {
                    Peers::One(b) if *b == rank => Some(recv.clone()),
                    Peers::Any(g) if g.contains(&rank) => Some(optional(recv)),
                    _ => None,
                };
                match (sender, receiver) {
                    (Some(s), Some(r)) => Local::Seq(vec![s, r]), // self-message
                    (Some(s), None) => s,
                    (None, Some(r)) => r,
                    (None, None) => Local::End,
                }
            }
        }
    }
}

// ---- NFA ------------------------------------------------------------------

/// A transition label in a local-type NFA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sym {
    /// Send with this tag to one of these ranks.
    Send {
        /// Admissible destination ranks.
        to: BTreeSet<usize>,
        /// Concrete message tag.
        tag: Tag,
    },
    /// Receive with this tag from one of these ranks.
    Recv {
        /// Admissible source ranks.
        from: BTreeSet<usize>,
        /// Concrete message tag.
        tag: Tag,
    },
    /// Participate in a collective with this (spec) name.
    Collective(String),
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sym::Send { to, tag } => {
                write!(f, "send(tag {tag} -> {:?})", to.iter().collect::<Vec<_>>())
            }
            Sym::Recv { from, tag } => {
                write!(
                    f,
                    "recv(tag {tag} <- {:?})",
                    from.iter().collect::<Vec<_>>()
                )
            }
            Sym::Collective(name) => write!(f, "collective {name}"),
        }
    }
}

/// The NFA compiled from one rank's local type (Thompson construction).
#[derive(Debug, Clone)]
pub struct Nfa {
    /// Labeled transitions per state.
    pub edges: Vec<Vec<(Sym, usize)>>,
    /// Epsilon transitions per state.
    pub eps: Vec<Vec<usize>>,
    /// Start state.
    pub start: usize,
    /// The unique accepting state.
    pub accept: usize,
}

impl Nfa {
    /// Compile a local type.
    #[must_use]
    pub fn compile(local: &Local) -> Self {
        let mut nfa = Nfa {
            edges: Vec::new(),
            eps: Vec::new(),
            start: 0,
            accept: 0,
        };
        let (start, accept) = nfa.build(local);
        nfa.start = start;
        nfa.accept = accept;
        nfa
    }

    fn state(&mut self) -> usize {
        self.edges.push(Vec::new());
        self.eps.push(Vec::new());
        self.edges.len() - 1
    }

    fn build(&mut self, local: &Local) -> (usize, usize) {
        match local {
            Local::End => {
                let s = self.state();
                (s, s)
            }
            Local::Send { to, tag } => self.atom(Sym::Send {
                to: to.clone(),
                tag: *tag,
            }),
            Local::Recv { from, tag } => self.atom(Sym::Recv {
                from: from.clone(),
                tag: *tag,
            }),
            Local::Collective(name) => self.atom(Sym::Collective(name.clone())),
            Local::Seq(items) => {
                let first = self.state();
                let mut cur = first;
                for item in items {
                    let (i, o) = self.build(item);
                    self.eps[cur].push(i);
                    cur = o;
                }
                (first, cur)
            }
            Local::Choice(branches) => {
                let (a, b) = (self.state(), self.state());
                for branch in branches {
                    let (i, o) = self.build(branch);
                    self.eps[a].push(i);
                    self.eps[o].push(b);
                }
                (a, b)
            }
            Local::Loop(body) => {
                let s = self.state();
                let (i, o) = self.build(body);
                self.eps[s].push(i);
                self.eps[o].push(s);
                (s, s)
            }
        }
    }

    fn atom(&mut self, sym: Sym) -> (usize, usize) {
        let (a, b) = (self.state(), self.state());
        self.edges[a].push((sym, b));
        (a, b)
    }

    /// Epsilon closure of a state set.
    #[must_use]
    pub fn closure(&self, set: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut out = set.clone();
        let mut work: Vec<usize> = set.iter().copied().collect();
        while let Some(s) = work.pop() {
            for &t in &self.eps[s] {
                if out.insert(t) {
                    work.push(t);
                }
            }
        }
        out
    }

    /// The initial (closed) state set.
    #[must_use]
    pub fn initial(&self) -> BTreeSet<usize> {
        self.closure(&BTreeSet::from([self.start]))
    }

    /// True when a (closed) state set contains the accepting state — the
    /// local type may legitimately end here.
    #[must_use]
    pub fn accepting(&self, states: &BTreeSet<usize>) -> bool {
        states.contains(&self.accept)
    }

    /// Advance a (closed) state set over every labeled edge `pred`
    /// accepts; returns the closed successor set (empty = no transition).
    #[must_use]
    pub fn step(&self, states: &BTreeSet<usize>, pred: impl Fn(&Sym) -> bool) -> BTreeSet<usize> {
        let mut next = BTreeSet::new();
        for &s in states {
            for (sym, t) in &self.edges[s] {
                if pred(sym) {
                    next.insert(*t);
                }
            }
        }
        self.closure(&next)
    }

    /// Every labeled edge reachable from a (closed) state set — the
    /// "expected next actions" used in diagnostics.
    #[must_use]
    pub fn expected(&self, states: &BTreeSet<usize>) -> Vec<&Sym> {
        let mut out = Vec::new();
        for &s in states {
            for (sym, _) in &self.edges[s] {
                if !out.contains(&sym) {
                    out.push(sym);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "
        protocol demo
        role master = 0
        role worker = 1..np
        tag WORK = 10
        tag RESULT = 11

        collective bcast
        foreach w in worker {
            msg master -> w : WORK
        }
        loop {
            msg any worker -> master : RESULT
        }
    ";

    #[test]
    fn parses_and_instantiates() {
        let spec = ProtocolSpec::parse(DEMO).unwrap();
        assert_eq!(spec.name, "demo");
        assert!(!spec.skip_collectives);
        let g = spec.instantiate(3).unwrap();
        // bcast + two unrolled WORK messages + the loop.
        let Global::Seq(items) = &g else { panic!() };
        assert_eq!(items.len(), 4);
        assert_eq!(items[0], Global::Collective("bcast".into()));
        assert_eq!(
            items[1],
            Global::Msg {
                from: Peers::One(0),
                to: Peers::One(1),
                tag: 10
            }
        );
    }

    #[test]
    fn digest_is_stable_per_source() {
        let a = ProtocolSpec::parse(DEMO).unwrap();
        let b = ProtocolSpec::parse(DEMO).unwrap();
        assert_eq!(a.digest(), b.digest());
        let c = ProtocolSpec::parse("role r = 0").unwrap();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn rejects_out_of_range_roles() {
        let spec = ProtocolSpec::parse("role r = 5").unwrap();
        let err = spec.instantiate(3).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn rejects_overlapping_endpoints_but_allows_role_aliases() {
        // Roles may alias each other...
        let spec = ProtocolSpec::parse("role a = 0 role b = {0, 1} msg a -> any b : 1").unwrap();
        assert!(spec.instantiate(2).unwrap_err().contains("overlap"));
        // ...but one message's endpoints must be disjoint.
        let spec = ProtocolSpec::parse("role a = 0 role f = 1..np msg any f -> any f : 1").unwrap();
        assert!(spec.instantiate(3).unwrap_err().contains("overlap"));
        let spec = ProtocolSpec::parse("role a = 0 role b = {0, 1} msg a -> b : 1").unwrap();
        assert!(spec.instantiate(2).is_err()); // bare multi-member role
    }

    #[test]
    fn rejects_unknown_names() {
        let spec = ProtocolSpec::parse("msg a -> b : 1").unwrap();
        assert!(spec.instantiate(2).unwrap_err().contains("unknown role"));
        let spec = ProtocolSpec::parse("role a = 0 role b = 1 msg a -> b : T").unwrap();
        assert!(spec.instantiate(2).unwrap_err().contains("unknown tag"));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(ProtocolSpec::parse("msg a ->").is_err());
        assert!(ProtocolSpec::parse("frobnicate { }").is_err());
        assert!(ProtocolSpec::parse("choice {").is_err());
        assert!(ProtocolSpec::parse("skip everything").is_err());
    }

    #[test]
    fn projection_shapes() {
        let spec = ProtocolSpec::parse(DEMO).unwrap();
        let g = spec.instantiate(3).unwrap();
        // Master: bcast, two mandatory sends, loop of mandatory receives
        // from the worker family.
        let m = g.project(0);
        let Local::Seq(items) = &m else { panic!() };
        assert_eq!(items[0], Local::Collective("bcast".into()));
        assert_eq!(
            items[1],
            Local::Send {
                to: BTreeSet::from([1]),
                tag: 10
            }
        );
        let Local::Loop(body) = &items[3] else {
            panic!("{items:?}")
        };
        let Local::Seq(loop_items) = body.as_ref() else {
            panic!()
        };
        assert_eq!(
            loop_items[0],
            Local::Recv {
                from: BTreeSet::from([1, 2]),
                tag: 11
            }
        );
        // Worker 2: the WORK message for worker 1 projects to End; its own
        // is a mandatory receive; the loop send is optional (a choice with
        // End).
        let w = g.project(2);
        let Local::Seq(items) = &w else { panic!() };
        assert_eq!(items[1], Local::End);
        assert_eq!(
            items[2],
            Local::Recv {
                from: BTreeSet::from([0]),
                tag: 10
            }
        );
    }

    #[test]
    fn nfa_walks_a_conforming_sequence() {
        let spec = ProtocolSpec::parse(DEMO).unwrap();
        let g = spec.instantiate(3).unwrap();
        let nfa = Nfa::compile(&g.project(0));
        let mut states = nfa.initial();
        assert!(!nfa.accepting(&states), "bcast still pending");
        states = nfa.step(&states, |s| matches!(s, Sym::Collective(n) if n == "bcast"));
        assert!(!states.is_empty());
        for dest in [1usize, 2] {
            states = nfa.step(
                &states,
                |s| matches!(s, Sym::Send { to, tag } if *tag == 10 && to.contains(&dest)),
            );
            assert!(!states.is_empty(), "send to {dest} rejected");
        }
        // Loop: two RESULT receives, accepting after each.
        for _ in 0..2 {
            assert!(nfa.accepting(&states));
            states = nfa.step(
                &states,
                |s| matches!(s, Sym::Recv { tag, .. } if *tag == 11),
            );
            assert!(!states.is_empty());
        }
        assert!(nfa.accepting(&states));
        // A third WORK send is not in the protocol here.
        let dead = nfa.step(
            &states,
            |s| matches!(s, Sym::Send { tag, .. } if *tag == 10),
        );
        assert!(dead.is_empty());
    }

    #[test]
    fn repeat_unrolls_with_np_arithmetic() {
        let spec =
            ProtocolSpec::parse("role a = 0 role b = 1 repeat np-2 { msg a -> b : 5 }").unwrap();
        let g = spec.instantiate(4).unwrap();
        let Global::Seq(items) = &g else { panic!() };
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn collective_name_matching() {
        assert!(collective_matches("allreduce", "allreduce_u64"));
        assert!(collective_matches("barrier", "barrier"));
        assert!(!collective_matches("reduce", "allreduce_u64"));
        assert!(!collective_matches("allreduce", "allreducex"));
    }
}
