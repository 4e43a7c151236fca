//! Polymorphic type inference (Hindley–Milner, Algorithm W).
//!
//! The paper's front-end "performs parsing and polymorphic type-checking"
//! against the skeleton signatures of §2, e.g.
//!
//! ```text
//! val df : int -> ('a -> 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c
//! ```
//!
//! Those signatures are pre-installed by [`TypeEnv::with_skeletons`];
//! application-specific sequential functions are declared with
//! [`TypeEnv::declare`] (usually via [`parse_type`]).

use crate::ast::{BinOp, Expr, ExprKind, Pattern, Program};
use crate::diag::{Diagnostic, Span, Stage};
use crate::token::{lex, Tok, Token};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A monotype.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A unification variable.
    Var(u32),
    /// A type constant (`int`, `bool`, `image`, `state`, …).
    Con(String),
    /// `t list`
    List(Box<Type>),
    /// `t1 * t2 * …`
    Tuple(Vec<Type>),
    /// `t1 -> t2`
    Fun(Box<Type>, Box<Type>),
}

impl Type {
    /// Convenience constructor for constants.
    pub fn con(name: &str) -> Type {
        Type::Con(name.to_string())
    }

    /// `int`.
    pub fn int() -> Type {
        Type::con("int")
    }

    /// `bool`.
    pub fn bool() -> Type {
        Type::con("bool")
    }

    /// `unit`.
    pub fn unit() -> Type {
        Type::con("unit")
    }

    /// Function type `a -> b`.
    pub fn fun(a: Type, b: Type) -> Type {
        Type::Fun(Box::new(a), Box::new(b))
    }

    /// List type.
    pub fn list(t: Type) -> Type {
        Type::List(Box::new(t))
    }

    fn free_vars(&self, out: &mut HashSet<u32>) {
        match self {
            Type::Var(v) => {
                out.insert(*v);
            }
            Type::Con(_) => {}
            Type::List(t) => t.free_vars(out),
            Type::Tuple(ts) => ts.iter().for_each(|t| t.free_vars(out)),
            Type::Fun(a, b) => {
                a.free_vars(out);
                b.free_vars(out);
            }
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Variables render as 'a, 'b, … in order of first appearance, so
        // internal ids never leak into messages.
        fn collect(t: &Type, order: &mut Vec<u32>) {
            match t {
                Type::Var(v) => {
                    if !order.contains(v) {
                        order.push(*v);
                    }
                }
                Type::Con(_) => {}
                Type::List(x) => collect(x, order),
                Type::Tuple(xs) => xs.iter().for_each(|x| collect(x, order)),
                Type::Fun(a, b) => {
                    collect(a, order);
                    collect(b, order);
                }
            }
        }
        let mut order = Vec::new();
        collect(self, &mut order);
        fn go(t: &Type, f: &mut fmt::Formatter<'_>, prec: u8, order: &[u32]) -> fmt::Result {
            match t {
                Type::Var(v) => {
                    let idx = order.iter().position(|x| x == v).unwrap_or(0) as u32;
                    let letter = (b'a' + (idx % 26) as u8) as char;
                    let suffix = idx / 26;
                    if suffix == 0 {
                        write!(f, "'{letter}")
                    } else {
                        write!(f, "'{letter}{suffix}")
                    }
                }
                Type::Con(c) => write!(f, "{c}"),
                Type::List(t) => {
                    go(t, f, 3, order)?;
                    write!(f, " list")
                }
                Type::Tuple(ts) => {
                    if prec >= 2 {
                        write!(f, "(")?;
                    }
                    for (i, t) in ts.iter().enumerate() {
                        if i > 0 {
                            write!(f, " * ")?;
                        }
                        go(t, f, 2, order)?;
                    }
                    if prec >= 2 {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Type::Fun(a, b) => {
                    if prec >= 1 {
                        write!(f, "(")?;
                    }
                    go(a, f, 1, order)?;
                    write!(f, " -> ")?;
                    go(b, f, 0, order)?;
                    if prec >= 1 {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
            }
        }
        go(self, f, 0, &order)
    }
}

/// A type scheme `∀ vars. ty`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheme {
    /// Universally quantified variables.
    pub vars: Vec<u32>,
    /// The body.
    pub ty: Type,
}

impl Scheme {
    /// A monomorphic scheme.
    pub fn mono(ty: Type) -> Scheme {
        Scheme {
            vars: Vec::new(),
            ty,
        }
    }

    /// Generalises every free variable of `ty` (used for externals, whose
    /// variables are all scheme-bound by construction).
    pub fn poly(ty: Type) -> Scheme {
        let mut vars = HashSet::new();
        ty.free_vars(&mut vars);
        let mut vars: Vec<u32> = vars.into_iter().collect();
        vars.sort_unstable();
        Scheme { vars, ty }
    }
}

/// The typing environment.
#[derive(Debug, Clone, Default)]
pub struct TypeEnv {
    bindings: HashMap<String, Scheme>,
}

impl TypeEnv {
    /// An empty environment.
    pub fn new() -> Self {
        TypeEnv::default()
    }

    /// An environment pre-loaded with the paper's skeleton signatures:
    ///
    /// ```text
    /// df      : int -> ('a -> 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c
    /// scm     : int -> ('a -> 'b list) -> ('b -> 'c) -> ('c list -> 'd) -> 'a -> 'd
    /// tf      : int -> ('a -> 'a list * 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c
    /// itermem : ('a -> 'b) -> ('c * 'b -> 'c * 'd) -> ('d -> unit) -> 'c -> 'a -> unit
    /// ```
    pub fn with_skeletons() -> Self {
        let mut env = TypeEnv::new();
        for (name, sig) in [
            (
                "df",
                "int -> ('a -> 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c",
            ),
            (
                "scm",
                "int -> ('a -> 'b list) -> ('b -> 'c) -> ('c list -> 'd) -> 'a -> 'd",
            ),
            (
                "tf",
                "int -> ('a -> 'a list * 'b) -> ('c -> 'b -> 'c) -> 'c -> 'a list -> 'c",
            ),
            (
                "itermem",
                "('a -> 'b) -> ('c * 'b -> 'c * 'd) -> ('d -> unit) -> 'c -> 'a -> unit",
            ),
        ] {
            env.declare(name, sig).expect("builtin signatures parse");
        }
        env
    }

    /// Declares an external (C) function by signature text, e.g.
    /// `env.declare("detect_mark", "window -> mark")`.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic when the signature does not parse.
    pub fn declare(&mut self, name: &str, signature: &str) -> Result<(), Diagnostic> {
        let ty = parse_type(signature)?;
        self.bindings.insert(name.to_string(), Scheme::poly(ty));
        Ok(())
    }

    /// Binds `name` to a scheme directly.
    pub fn bind(&mut self, name: &str, scheme: Scheme) {
        self.bindings.insert(name.to_string(), scheme);
    }

    /// Looks up a name.
    pub fn lookup(&self, name: &str) -> Option<&Scheme> {
        self.bindings.get(name)
    }

    fn free_vars(&self, out: &mut HashSet<u32>) {
        for s in self.bindings.values() {
            let mut fv = HashSet::new();
            s.ty.free_vars(&mut fv);
            for v in &s.vars {
                fv.remove(v);
            }
            out.extend(fv);
        }
    }
}

/// Inference result for a whole program.
#[derive(Debug, Clone)]
pub struct ProgramTypes {
    /// Scheme of every top-level binding, in declaration order.
    pub items: Vec<(String, Scheme)>,
}

impl ProgramTypes {
    /// The scheme of a top-level name.
    pub fn scheme_of(&self, name: &str) -> Option<&Scheme> {
        self.items.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }
}

/// The inference engine.
#[derive(Debug, Default)]
pub struct Infer {
    next: u32,
    subst: HashMap<u32, Type>,
}

impl Infer {
    /// Creates a fresh engine. Variable ids start high so they never
    /// collide with ids produced by [`parse_type`].
    pub fn new() -> Self {
        Infer {
            next: 1000,
            subst: HashMap::new(),
        }
    }

    /// A fresh unification variable.
    pub fn fresh(&mut self) -> Type {
        let v = self.next;
        self.next += 1;
        Type::Var(v)
    }

    /// Fully applies the current substitution to `t`.
    pub fn resolve(&self, t: &Type) -> Type {
        match t {
            Type::Var(v) => match self.subst.get(v) {
                Some(bound) => self.resolve(&bound.clone()),
                None => Type::Var(*v),
            },
            Type::Con(c) => Type::Con(c.clone()),
            Type::List(x) => Type::list(self.resolve(x)),
            Type::Tuple(xs) => Type::Tuple(xs.iter().map(|x| self.resolve(x)).collect()),
            Type::Fun(a, b) => Type::fun(self.resolve(a), self.resolve(b)),
        }
    }

    fn occurs(&self, v: u32, t: &Type) -> bool {
        match self.resolve(t) {
            Type::Var(w) => w == v,
            Type::Con(_) => false,
            Type::List(x) => self.occurs(v, &x),
            Type::Tuple(xs) => xs.iter().any(|x| self.occurs(v, x)),
            Type::Fun(a, b) => self.occurs(v, &a) || self.occurs(v, &b),
        }
    }

    /// Unifies two types.
    ///
    /// # Errors
    ///
    /// Returns a located diagnostic on constructor clash or occurs-check
    /// failure.
    pub fn unify(&mut self, a: &Type, b: &Type, span: Span) -> Result<(), Diagnostic> {
        let (ra, rb) = (self.resolve(a), self.resolve(b));
        match (&ra, &rb) {
            (Type::Var(v), Type::Var(w)) if v == w => Ok(()),
            (Type::Var(v), t) | (t, Type::Var(v)) => {
                if self.occurs(*v, t) {
                    return Err(Diagnostic::new(
                        Stage::Type,
                        format!("occurs check: cannot construct the infinite type {ra} = {rb}"),
                        span,
                    ));
                }
                self.subst.insert(*v, t.clone());
                Ok(())
            }
            (Type::Con(x), Type::Con(y)) if x == y => Ok(()),
            (Type::List(x), Type::List(y)) => self.unify(x, y, span),
            (Type::Tuple(xs), Type::Tuple(ys)) if xs.len() == ys.len() => {
                for (x, y) in xs.iter().zip(ys) {
                    self.unify(x, y, span)?;
                }
                Ok(())
            }
            (Type::Fun(a1, b1), Type::Fun(a2, b2)) => {
                self.unify(a1, a2, span)?;
                self.unify(b1, b2, span)
            }
            _ => Err(Diagnostic::new(
                Stage::Type,
                format!("type mismatch: expected {ra}, found {rb}"),
                span,
            )),
        }
    }

    /// Instantiates a scheme with fresh variables.
    pub fn instantiate(&mut self, scheme: &Scheme) -> Type {
        let mapping: HashMap<u32, Type> = scheme.vars.iter().map(|&v| (v, self.fresh())).collect();
        fn subst(t: &Type, m: &HashMap<u32, Type>) -> Type {
            match t {
                Type::Var(v) => m.get(v).cloned().unwrap_or(Type::Var(*v)),
                Type::Con(c) => Type::Con(c.clone()),
                Type::List(x) => Type::list(subst(x, m)),
                Type::Tuple(xs) => Type::Tuple(xs.iter().map(|x| subst(x, m)).collect()),
                Type::Fun(a, b) => Type::fun(subst(a, m), subst(b, m)),
            }
        }
        subst(&scheme.ty, &mapping)
    }

    /// Generalises `t` over variables not free in `env`.
    pub fn generalize(&self, env: &TypeEnv, t: &Type) -> Scheme {
        let t = self.resolve(t);
        let mut tv = HashSet::new();
        t.free_vars(&mut tv);
        let mut ev = HashSet::new();
        env.free_vars(&mut ev);
        // Environment variables must be resolved too.
        let ev: HashSet<u32> = ev
            .into_iter()
            .flat_map(|v| {
                let mut out = HashSet::new();
                self.resolve(&Type::Var(v)).free_vars(&mut out);
                out
            })
            .collect();
        let mut vars: Vec<u32> = tv.difference(&ev).copied().collect();
        vars.sort_unstable();
        Scheme { vars, ty: t }
    }

    /// Binds `pat` against `t`, extending `env` with **monomorphic**
    /// bindings (lambda-bound variables).
    fn bind_pattern_mono(
        &mut self,
        env: &mut TypeEnv,
        pat: &Pattern,
        t: &Type,
    ) -> Result<(), Diagnostic> {
        match pat {
            Pattern::Var(v, _) => {
                env.bind(v, Scheme::mono(t.clone()));
                Ok(())
            }
            Pattern::Wildcard(_) => Ok(()),
            Pattern::Unit(s) => self.unify(t, &Type::unit(), *s),
            Pattern::Tuple(ps, s) => {
                let parts: Vec<Type> = ps.iter().map(|_| self.fresh()).collect();
                self.unify(t, &Type::Tuple(parts.clone()), *s)?;
                for (p, pt) in ps.iter().zip(&parts) {
                    self.bind_pattern_mono(env, p, pt)?;
                }
                Ok(())
            }
        }
    }

    /// Infers the type of `expr` under `env`.
    ///
    /// # Errors
    ///
    /// Returns the first located type error.
    pub fn infer(&mut self, env: &TypeEnv, expr: &Expr) -> Result<Type, Diagnostic> {
        match &expr.kind {
            ExprKind::Int(_) => Ok(Type::int()),
            ExprKind::Float(_) => Ok(Type::con("float")),
            ExprKind::Bool(_) => Ok(Type::bool()),
            ExprKind::Str(_) => Ok(Type::con("string")),
            ExprKind::Unit => Ok(Type::unit()),
            ExprKind::Var(v) => match env.lookup(v) {
                Some(s) => Ok(self.instantiate(s)),
                None => Err(Diagnostic::new(
                    Stage::Type,
                    format!("unbound variable `{v}`"),
                    expr.span,
                )),
            },
            ExprKind::Tuple(es) => {
                let ts = es
                    .iter()
                    .map(|e| self.infer(env, e))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Type::Tuple(ts))
            }
            ExprKind::List(es) => {
                let elem = self.fresh();
                for e in es {
                    let t = self.infer(env, e)?;
                    self.unify(&elem, &t, e.span)?;
                }
                Ok(Type::list(elem))
            }
            ExprKind::App(f, a) => {
                let tf = self.infer(env, f)?;
                let ta = self.infer(env, a)?;
                let r = self.fresh();
                self.unify(&tf, &Type::fun(ta, r.clone()), expr.span)?;
                Ok(r)
            }
            ExprKind::Lambda(p, body) => {
                let tp = self.fresh();
                let mut inner = env.clone();
                self.bind_pattern_mono(&mut inner, p, &tp)?;
                let tb = self.infer(&inner, body)?;
                Ok(Type::fun(tp, tb))
            }
            ExprKind::Let { pat, value, body } => {
                let tv = self.infer(env, value)?;
                let mut inner = env.clone();
                match pat {
                    // Simple variables get let-polymorphism.
                    Pattern::Var(v, _) => {
                        let scheme = self.generalize(env, &tv);
                        inner.bind(v, scheme);
                    }
                    _ => self.bind_pattern_mono(&mut inner, pat, &tv)?,
                }
                self.infer(&inner, body)
            }
            ExprKind::If(c, t, e) => {
                let tc = self.infer(env, c)?;
                self.unify(&tc, &Type::bool(), c.span)?;
                let tt = self.infer(env, t)?;
                let te = self.infer(env, e)?;
                self.unify(&tt, &te, expr.span)?;
                Ok(tt)
            }
            ExprKind::BinOp(op, l, r) => {
                let tl = self.infer(env, l)?;
                let tr = self.infer(env, r)?;
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        self.unify(&tl, &Type::int(), l.span)?;
                        self.unify(&tr, &Type::int(), r.span)?;
                        Ok(Type::int())
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => {
                        self.unify(&tl, &tr, expr.span)?;
                        Ok(Type::bool())
                    }
                }
            }
        }
    }
}

/// Type-checks a whole program under `env`, returning the scheme of every
/// top-level binding. Bindings see earlier bindings (no mutual recursion),
/// matching the paper's Caml usage.
///
/// # Errors
///
/// Returns the first located type error.
pub fn check_program(env: &TypeEnv, program: &Program) -> Result<ProgramTypes, Diagnostic> {
    let mut env = env.clone();
    let mut infer = Infer::new();
    let mut items = Vec::new();
    for item in &program.items {
        let lam = item.as_lambda();
        let t = infer.infer(&env, &lam)?;
        let scheme = infer.generalize(&env, &t);
        env.bind(&item.name, scheme.clone());
        items.push((item.name.clone(), scheme));
    }
    Ok(ProgramTypes { items })
}

/// Parses a type expression, e.g. `"int -> ('a -> 'b) -> 'a list -> 'b"`.
///
/// Grammar: `->` is right-associative, `*` builds tuples, `list` is a
/// postfix constructor, `'a` are scheme variables (shared by name).
///
/// # Errors
///
/// Returns a diagnostic for malformed signatures.
pub fn parse_type(source: &str) -> Result<Type, Diagnostic> {
    let toks = lex(source)?;
    let mut p = TypeParser {
        toks,
        pos: 0,
        vars: HashMap::new(),
        next: 0,
    };
    let t = p.arrow()?;
    if p.peek() != &Tok::Eof {
        return Err(Diagnostic::new(
            Stage::Parse,
            format!("unexpected `{}` in type", p.peek()),
            p.span(),
        ));
    }
    Ok(t)
}

struct TypeParser {
    toks: Vec<Token>,
    pos: usize,
    vars: HashMap<String, u32>,
    next: u32,
}

impl TypeParser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn span(&self) -> Span {
        self.toks[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn arrow(&mut self) -> Result<Type, Diagnostic> {
        let lhs = self.product()?;
        if self.peek() == &Tok::Arrow {
            self.bump();
            let rhs = self.arrow()?;
            return Ok(Type::fun(lhs, rhs));
        }
        Ok(lhs)
    }

    fn product(&mut self) -> Result<Type, Diagnostic> {
        let first = self.postfix()?;
        if self.peek() != &Tok::Star {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.peek() == &Tok::Star {
            self.bump();
            parts.push(self.postfix()?);
        }
        Ok(Type::Tuple(parts))
    }

    fn postfix(&mut self) -> Result<Type, Diagnostic> {
        let mut t = self.atom()?;
        while let Tok::Ident(name) = self.peek() {
            if name == "list" {
                self.bump();
                t = Type::list(t);
            } else {
                break;
            }
        }
        Ok(t)
    }

    fn atom(&mut self) -> Result<Type, Diagnostic> {
        match self.peek().clone() {
            Tok::Ident(name) => {
                self.bump();
                Ok(Type::Con(name))
            }
            Tok::TyVar(v) => {
                self.bump();
                let next = &mut self.next;
                let id = *self.vars.entry(v).or_insert_with(|| {
                    let id = *next;
                    *next += 1;
                    id
                });
                Ok(Type::Var(id))
            }
            Tok::LParen => {
                self.bump();
                let t = self.arrow()?;
                if self.peek() != &Tok::RParen {
                    return Err(Diagnostic::new(
                        Stage::Parse,
                        format!("expected `)`, found `{}`", self.peek()),
                        self.span(),
                    ));
                }
                self.bump();
                Ok(t)
            }
            other => Err(Diagnostic::new(
                Stage::Parse,
                format!("expected type, found `{other}`"),
                self.span(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    fn infer_str(env: &TypeEnv, src: &str) -> Result<String, Diagnostic> {
        let e = parse_expr(src)?;
        let mut inf = Infer::new();
        let t = inf.infer(env, &e)?;
        Ok(inf.resolve(&t).to_string())
    }

    #[test]
    fn parse_type_roundtrips() {
        let t = parse_type("int -> ('a -> 'b) -> 'a list -> 'b").unwrap();
        assert_eq!(t.to_string(), "int -> ('a -> 'b) -> 'a list -> 'b");
        let t2 = parse_type("'c * 'b -> 'c * 'd").unwrap();
        assert!(matches!(t2, Type::Fun(_, _)));
    }

    #[test]
    fn literals_and_arith() {
        let env = TypeEnv::new();
        assert_eq!(infer_str(&env, "1 + 2 * 3").unwrap(), "int");
        assert_eq!(infer_str(&env, "1 < 2").unwrap(), "bool");
        assert_eq!(infer_str(&env, "(1, true)").unwrap(), "int * bool");
        assert_eq!(infer_str(&env, "[1; 2]").unwrap(), "int list");
    }

    #[test]
    fn heterogeneous_list_rejected() {
        let env = TypeEnv::new();
        let err = infer_str(&env, "[1; true]").unwrap_err();
        assert!(err.message.contains("mismatch"), "{}", err.message);
    }

    #[test]
    fn lambda_and_application() {
        let env = TypeEnv::new();
        assert_eq!(infer_str(&env, "fun x -> x + 1").unwrap(), "int -> int");
        assert_eq!(infer_str(&env, "(fun x -> x) 5").unwrap(), "int");
    }

    #[test]
    fn let_polymorphism() {
        let env = TypeEnv::new();
        assert_eq!(
            infer_str(&env, "let id = fun x -> x in (id 1, id true)").unwrap(),
            "int * bool"
        );
    }

    #[test]
    fn lambda_bound_vars_are_monomorphic() {
        let env = TypeEnv::new();
        // Classic: a lambda-bound f cannot be used at two types.
        let err = infer_str(&env, "fun f -> (f 1, f true)").unwrap_err();
        assert!(err.message.contains("mismatch"));
    }

    #[test]
    fn occurs_check_fires() {
        let env = TypeEnv::new();
        let err = infer_str(&env, "fun x -> x x").unwrap_err();
        assert!(err.message.contains("occurs"), "{}", err.message);
    }

    #[test]
    fn unbound_variable_located() {
        let env = TypeEnv::new();
        let err = infer_str(&env, "1 + nope").unwrap_err();
        assert!(err.message.contains("unbound variable `nope`"));
        assert!(err.span.is_some());
    }

    #[test]
    fn df_signature_enforces_consistency() {
        let mut env = TypeEnv::with_skeletons();
        env.declare("detect", "window -> mark").unwrap();
        env.declare("accum", "mark list -> mark -> mark list")
            .unwrap();
        env.declare("empty", "mark list").unwrap();
        env.declare("windows", "window list").unwrap();
        assert_eq!(
            infer_str(&env, "df 8 detect accum empty windows").unwrap(),
            "mark list"
        );
        // Wrong accumulator type must be rejected.
        env.declare("bad_acc", "int -> mark -> int").unwrap();
        let err = infer_str(&env, "df 8 detect accum 0 windows").unwrap_err();
        assert!(err.message.contains("mismatch"));
    }

    #[test]
    fn paper_program_typechecks() {
        let src = r#"
            let nproc = 8;;
            let s0 = init_state ();;
            let loop (state, im) =
              let ws = get_windows nproc state im in
              let marks = df nproc detect_mark accum_marks empty_list ws in
              predict marks;;
            let main = itermem read_img loop display_marks s0 512;;
        "#;
        let mut env = TypeEnv::with_skeletons();
        for (name, sig) in [
            ("init_state", "unit -> state"),
            ("read_img", "int -> image"),
            ("get_windows", "int -> state -> image -> window list"),
            ("detect_mark", "window -> mark"),
            ("accum_marks", "mark list -> mark -> mark list"),
            ("empty_list", "mark list"),
            ("predict", "mark list -> state * mark_list_out"),
            ("display_marks", "mark_list_out -> unit"),
        ] {
            env.declare(name, sig).unwrap();
        }
        let prog = parse_program(src).unwrap();
        let types = check_program(&env, &prog).unwrap();
        assert_eq!(types.scheme_of("main").unwrap().ty.to_string(), "unit");
        assert_eq!(
            types.scheme_of("loop").unwrap().ty.to_string(),
            "state * image -> state * mark_list_out"
        );
    }

    #[test]
    fn ill_typed_paper_variant_rejected_with_location() {
        // detect_mark applied to images instead of windows.
        let src = "let r = df 4 detect_mark accum_marks empty_list imgs;;";
        let mut env = TypeEnv::with_skeletons();
        env.declare("detect_mark", "window -> mark").unwrap();
        env.declare("accum_marks", "mark list -> mark -> mark list")
            .unwrap();
        env.declare("empty_list", "mark list").unwrap();
        env.declare("imgs", "image list").unwrap();
        let prog = parse_program(src).unwrap();
        let err = check_program(&env, &prog).unwrap_err();
        assert!(err.span.is_some());
        assert!(err.message.contains("mismatch"));
    }

    #[test]
    fn itermem_signature_matches_fig4() {
        let env = TypeEnv::with_skeletons();
        let scheme = env.lookup("itermem").unwrap();
        assert_eq!(
            scheme.ty.to_string(),
            "('a -> 'b) -> ('c * 'b -> 'c * 'd) -> ('d -> unit) -> 'c -> 'a -> unit"
        );
        assert_eq!(scheme.vars.len(), 4);
    }

    #[test]
    fn generalization_respects_env() {
        // In `fun x -> let y = x in y`, y generalises to nothing (x is
        // env-bound), so the function stays 'a -> 'a rather than exploding.
        let env = TypeEnv::new();
        assert_eq!(
            infer_str(&env, "fun x -> let y = x in y").unwrap(),
            "'a -> 'a"
        );
    }
}
