//! Type checking, name resolution, and lowering to a resolved HIR.
//!
//! Concretely this pass:
//!
//! * resolves every name to a local slot, state field, global array, local
//!   function, or builtin;
//! * enforces the schema's access annotations statically ("the access
//!   permissions … whether the function can update its value");
//! * types every expression as `Int` / `Unit` — booleans are 0/1 and no
//!   other value types exist in the language;
//! * rewrites `let rec` captures into explicit trailing parameters, so the
//!   code generator only ever sees closed functions.
//!
//! What §3.4.4 calls "the most challenging aspect of the compilation
//! process", a function's input and output dependencies, is not collected
//! here: the verifier reads the read/write sets off the finished bytecode
//! (`Program::envelope().state`), and the concurrency level is derived
//! from them ([`Concurrency::needed`](crate::Concurrency::needed)).
//!
//! Capture semantics: a `let rec` body may read outer `let` bindings; a
//! free-variable pre-scan turns each into a hidden trailing parameter,
//! evaluated at every call site (**by value**). The language has no way to
//! mutate an outer local from inside a function (captures bind immutably),
//! so this is indistinguishable from F# closure semantics for programs the
//! checker accepts.

use std::collections::HashMap;

use crate::ast::{builtin_returns_value, BinOp, Expr, ExprKind, Function, LValue};
use crate::error::{CompileError, ErrorKind};
use crate::schema::{Access, Schema, Scope};
use crate::token::Span;

/// Value types. Booleans are `Int` 0/1, as in the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    Int,
    Unit,
}

/// Builtin functions after resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    Rand,
    RandRange,
    Now,
    Hash,
    Drop,
    SetQueue,
    ToController,
    GotoTable,
}

/// Resolved, typed expressions. Every node in value position pushes exactly
/// one i64; `Unit`-typed nodes push nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum HExpr {
    Int(i64),
    /// Read a frame local.
    Local(u8),
    /// Read a state field.
    LoadField(Scope, u8),
    /// `array.[index]` (+ struct offset) — index yields the element index;
    /// codegen scales by stride.
    LoadArr {
        id: u8,
        stride: u8,
        offset: u8,
        index: Box<HExpr>,
    },
    /// Element count of a global array.
    ArrLen {
        id: u8,
        stride: u8,
    },
    Bin {
        op: BinOp,
        lhs: Box<HExpr>,
        rhs: Box<HExpr>,
    },
    Neg(Box<HExpr>),
    Not(Box<HExpr>),
    /// Write a frame local.
    StoreLocal(u8, Box<HExpr>),
    StoreField(Scope, u8, Box<HExpr>),
    StoreArr {
        id: u8,
        stride: u8,
        offset: u8,
        index: Box<HExpr>,
        value: Box<HExpr>,
    },
    If {
        cond: Box<HExpr>,
        then: Box<HExpr>,
        els: Option<Box<HExpr>>,
        /// Whether this `if` produces a value (both arms `Int`).
        has_value: bool,
    },
    Seq(Vec<HExpr>),
    /// Evaluate for effect, pop the produced value.
    Discard(Box<HExpr>),
    /// Call local function `func` (capture arguments already appended).
    Call {
        func: u16,
        args: Vec<HExpr>,
    },
    CallBuiltin {
        builtin: Builtin,
        args: Vec<HExpr>,
    },
}

/// A lowered local function: closed, `arity` params (declared + captures),
/// `n_locals` total frame slots.
#[derive(Debug, Clone, PartialEq)]
pub struct HFunc {
    pub name: String,
    pub arity: u8,
    pub n_locals: u8,
    pub body: HExpr,
}

/// Output of type checking.
#[derive(Debug, Clone, PartialEq)]
pub struct Checked {
    pub body: HExpr,
    pub funcs: Vec<HFunc>,
    pub entry_locals: u8,
}

/// Name bindings visible at a program point.
#[derive(Debug, Clone)]
enum Binding {
    /// One of the three state parameters.
    Param(Scope),
    /// A frame local; `mutable` allows `<-`.
    Local { slot: u8, mutable: bool },
    /// Alias for a global array.
    Array(u8),
    /// A `let rec` function: id, declared arity, capture names (resolved at
    /// each call site).
    Func {
        id: u16,
        arity: usize,
        captures: Vec<String>,
    },
}

/// Per-function naming scope; the top level is one frame.
#[derive(Debug)]
struct Frame {
    scopes: Vec<HashMap<String, Binding>>,
    next_local: u16,
    max_local: u16,
}

impl Frame {
    fn new() -> Self {
        Frame {
            scopes: vec![HashMap::new()],
            next_local: 0,
            max_local: 0,
        }
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|m| m.get(name))
    }

    fn bind(&mut self, name: &str, b: Binding) {
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .insert(name.to_string(), b);
    }

    fn alloc_local(&mut self, span: Span) -> Result<u8, CompileError> {
        let slot = self.next_local;
        if slot > u8::MAX as u16 {
            return Err(CompileError::new(
                ErrorKind::Codegen("too many locals (max 256 per function)".into()),
                span,
            ));
        }
        self.next_local += 1;
        self.max_local = self.max_local.max(self.next_local);
        Ok(slot as u8)
    }
}

struct Checker<'a> {
    schema: &'a Schema,
    funcs: Vec<HFunc>,
}

/// Check `function` against `schema`.
pub fn check(function: &Function, schema: &Schema) -> Result<Checked, CompileError> {
    // Replication annotations are part of the state typing (Figure 8 plus
    // the replicated(<mode>) extension): replicating per-packet or
    // per-message state is a type error, caught here so wire-decoded
    // schemas get the same treatment as builder-declared ones.
    if let Err(msg) = schema.validate_repl() {
        return Err(CompileError::new(ErrorKind::Type(msg), function.body.span));
    }

    let mut checker = Checker {
        schema,
        funcs: Vec::new(),
    };

    let mut top = Frame::new();
    top.bind(&function.params[0], Binding::Param(Scope::Packet));
    top.bind(&function.params[1], Binding::Param(Scope::Message));
    top.bind(&function.params[2], Binding::Param(Scope::Global));

    let (body, ty) = checker.expr(&function.body, &mut top)?;
    let body = match ty {
        Ty::Int => HExpr::Discard(Box::new(body)),
        Ty::Unit => body,
    };

    Ok(Checked {
        body,
        funcs: checker.funcs,
        entry_locals: top.max_local as u8,
    })
}

impl<'a> Checker<'a> {
    fn expr(&mut self, e: &Expr, frame: &mut Frame) -> Result<(HExpr, Ty), CompileError> {
        let span = e.span;
        match &e.kind {
            ExprKind::Int(v) => Ok((HExpr::Int(*v), Ty::Int)),

            ExprKind::Var(name) => match frame.lookup(name) {
                Some(Binding::Local { slot, .. }) => Ok((HExpr::Local(*slot), Ty::Int)),
                Some(Binding::Param(s)) => Err(self.type_err(
                    format!("state parameter '{name}' ({s} scope) cannot be used as a value"),
                    span,
                )),
                Some(Binding::Array(_)) => Err(self.type_err(
                    format!("array alias '{name}' cannot be used as a value"),
                    span,
                )),
                Some(Binding::Func { .. }) => Err(self.type_err(
                    format!("function '{name}' must be called with arguments"),
                    span,
                )),
                None => Err(self.type_err(format!("unknown variable '{name}'"), span)),
            },

            ExprKind::Field { base, field } => {
                if let Some(Binding::Array(id)) = frame.lookup(base) {
                    let id = *id;
                    if field == "Length" {
                        let stride = self.schema.arrays()[id as usize].stride() as u8;
                        return Ok((HExpr::ArrLen { id, stride }, Ty::Int));
                    }
                    return Err(self.type_err(
                        format!(
                            "array alias '{base}' only supports '.Length' (use '.[i]' to index)"
                        ),
                        span,
                    ));
                }
                let scope = self.param_scope(base, span, frame)?;
                if scope == Scope::Global && self.schema.array(field).is_some() {
                    return Err(self.type_err(
                        format!("global array '{field}' must be bound with 'let' before use"),
                        span,
                    ));
                }
                let decl = self.schema.field(scope, field).ok_or_else(|| {
                    self.type_err(format!("no field '{field}' in {scope} scope"), span)
                })?;
                Ok((HExpr::LoadField(scope, decl.slot), Ty::Int))
            }

            ExprKind::Index {
                array,
                index,
                field,
            } => {
                let id = match frame.lookup(array) {
                    Some(Binding::Array(id)) => *id,
                    _ => {
                        return Err(
                            self.type_err(format!("'{array}' is not a global array alias"), span)
                        )
                    }
                };
                let (stride, offset) = self.array_target(id, field.as_deref(), span)?;
                let (idx, ty) = self.expr(index, frame)?;
                self.require_int(ty, index.span, "array index")?;
                Ok((
                    HExpr::LoadArr {
                        id,
                        stride,
                        offset,
                        index: Box::new(idx),
                    },
                    Ty::Int,
                ))
            }

            ExprKind::Bin { op, lhs, rhs } => {
                let (l, lt) = self.expr(lhs, frame)?;
                let (r, rt) = self.expr(rhs, frame)?;
                self.require_int(lt, lhs.span, "operand")?;
                self.require_int(rt, rhs.span, "operand")?;
                Ok((
                    HExpr::Bin {
                        op: *op,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    },
                    Ty::Int,
                ))
            }

            ExprKind::Neg(inner) => {
                let (h, t) = self.expr(inner, frame)?;
                self.require_int(t, inner.span, "operand of '-'")?;
                Ok((HExpr::Neg(Box::new(h)), Ty::Int))
            }

            ExprKind::Not(inner) => {
                let (h, t) = self.expr(inner, frame)?;
                self.require_int(t, inner.span, "operand of 'not'")?;
                Ok((HExpr::Not(Box::new(h)), Ty::Int))
            }

            ExprKind::Let {
                name,
                mutable,
                value,
                body,
            } => {
                // Array aliasing: `let ps = _global.Priorities`
                if let ExprKind::Field { base, field } = &value.kind {
                    let is_global_param =
                        matches!(frame.lookup(base), Some(Binding::Param(Scope::Global)));
                    if is_global_param {
                        if let Some(decl) = self.schema.array(field) {
                            if *mutable {
                                return Err(
                                    self.type_err("array aliases cannot be 'mutable'".into(), span)
                                );
                            }
                            let id = decl.id;
                            frame.scopes.push(HashMap::new());
                            frame.bind(name, Binding::Array(id));
                            let result = self.expr(body, frame);
                            frame.scopes.pop();
                            return result;
                        }
                    }
                }
                let (v, vt) = self.expr(value, frame)?;
                self.require_int(vt, value.span, "'let' initializer")?;
                let slot = frame.alloc_local(span)?;
                frame.scopes.push(HashMap::new());
                frame.bind(
                    name,
                    Binding::Local {
                        slot,
                        mutable: *mutable,
                    },
                );
                let (b, bt) = self.expr(body, frame)?;
                frame.scopes.pop();
                Ok((
                    HExpr::Seq(vec![HExpr::StoreLocal(slot, Box::new(v)), b]),
                    bt,
                ))
            }

            ExprKind::LetRec {
                name,
                params,
                fn_body,
                body,
            } => self.let_rec(name, params, fn_body, body, span, frame),

            ExprKind::Assign { lhs, value } => self.assign(lhs, value, span, frame),

            ExprKind::If { cond, then, els } => {
                let (c, ct) = self.expr(cond, frame)?;
                self.require_int(ct, cond.span, "'if' condition")?;
                let (t, tt) = self.expr(then, frame)?;
                match els {
                    Some(e2) => {
                        let (f, ft) = self.expr(e2, frame)?;
                        let (t, f, has_value) = match (tt, ft) {
                            (Ty::Int, Ty::Int) => (t, f, true),
                            (Ty::Unit, Ty::Unit) => (t, f, false),
                            (Ty::Int, Ty::Unit) => (HExpr::Discard(Box::new(t)), f, false),
                            (Ty::Unit, Ty::Int) => (t, HExpr::Discard(Box::new(f)), false),
                        };
                        Ok((
                            HExpr::If {
                                cond: Box::new(c),
                                then: Box::new(t),
                                els: Some(Box::new(f)),
                                has_value,
                            },
                            if has_value { Ty::Int } else { Ty::Unit },
                        ))
                    }
                    None => {
                        let t = match tt {
                            Ty::Int => HExpr::Discard(Box::new(t)),
                            Ty::Unit => t,
                        };
                        Ok((
                            HExpr::If {
                                cond: Box::new(c),
                                then: Box::new(t),
                                els: None,
                                has_value: false,
                            },
                            Ty::Unit,
                        ))
                    }
                }
            }

            ExprKind::Seq(stmts) => {
                let mut out = Vec::with_capacity(stmts.len());
                let mut last_ty = Ty::Unit;
                for (i, s) in stmts.iter().enumerate() {
                    let (h, t) = self.expr(s, frame)?;
                    if i + 1 == stmts.len() {
                        last_ty = t;
                        out.push(h);
                    } else {
                        out.push(match t {
                            Ty::Int => HExpr::Discard(Box::new(h)),
                            Ty::Unit => h,
                        });
                    }
                }
                Ok((HExpr::Seq(out), last_ty))
            }

            ExprKind::Call { name, args } => self.call(name, args, span, frame),
        }
    }

    /// Handle `let rec`: pre-scan the body's free locals to fix the capture
    /// list, then check the body in a fresh frame where captures are bound
    /// as immutable parameters right after the declared ones.
    fn let_rec(
        &mut self,
        name: &str,
        params: &[String],
        fn_body: &Expr,
        body: &Expr,
        span: Span,
        frame: &mut Frame,
    ) -> Result<(HExpr, Ty), CompileError> {
        // --- capture pre-scan ------------------------------------------
        let mut bound: Vec<Vec<String>> =
            vec![params.iter().cloned().chain([name.to_string()]).collect()];
        let mut captures: Vec<String> = Vec::new();
        scan_free_locals(fn_body, &mut bound, frame, &mut captures);

        let arity = params.len() + captures.len();
        if arity > 64 {
            return Err(self.type_err(
                format!("function '{name}' has too many parameters + captures"),
                span,
            ));
        }

        // --- inner frame -------------------------------------------------
        let id = self.funcs.len() as u16;
        // reserve the slot so nested definitions get later ids
        self.funcs.push(HFunc {
            name: name.to_string(),
            arity: arity as u8,
            n_locals: 0,
            body: HExpr::Int(0),
        });

        let mut inner = Frame::new();
        // state params, array aliases, and previously defined functions stay
        // visible inside the function body
        for m in &frame.scopes {
            for (n, b) in m {
                match b {
                    Binding::Param(s) => inner.bind(n, Binding::Param(*s)),
                    Binding::Array(a) => inner.bind(n, Binding::Array(*a)),
                    Binding::Func {
                        id,
                        arity,
                        captures,
                    } => inner.bind(
                        n,
                        Binding::Func {
                            id: *id,
                            arity: *arity,
                            captures: captures.clone(),
                        },
                    ),
                    Binding::Local { .. } => {}
                }
            }
        }
        // self-binding with the final capture list: self-call sites resolve
        // capture names to this frame's capture params (same names, bound
        // below), passing them through unchanged.
        inner.bind(
            name,
            Binding::Func {
                id,
                arity: params.len(),
                captures: captures.clone(),
            },
        );
        for p in params {
            let slot = inner.alloc_local(span)?;
            inner.bind(
                p,
                Binding::Local {
                    slot,
                    mutable: false,
                },
            );
        }
        for c in &captures {
            let slot = inner.alloc_local(span)?;
            inner.bind(
                c,
                Binding::Local {
                    slot,
                    mutable: false,
                },
            );
        }

        let (fb, fbt) = self.expr(fn_body, &mut inner)?;
        self.require_int(fbt, fn_body.span, "'let rec' function body")?;
        self.funcs[id as usize] = HFunc {
            name: name.to_string(),
            arity: arity as u8,
            n_locals: inner.max_local as u8,
            body: fb,
        };

        // --- continuation -------------------------------------------------
        frame.scopes.push(HashMap::new());
        frame.bind(
            name,
            Binding::Func {
                id,
                arity: params.len(),
                captures,
            },
        );
        let result = self.expr(body, frame);
        frame.scopes.pop();
        result
    }

    fn assign(
        &mut self,
        lhs: &LValue,
        value: &Expr,
        span: Span,
        frame: &mut Frame,
    ) -> Result<(HExpr, Ty), CompileError> {
        let (v, vt) = self.expr(value, frame)?;
        self.require_int(vt, value.span, "assigned value")?;
        let h = match lhs {
            LValue::Local(name) => match frame.lookup(name) {
                Some(Binding::Local { slot, mutable }) => {
                    if !mutable {
                        return Err(self.type_err(
                            format!("'{name}' is immutable; declare it 'let mutable'"),
                            span,
                        ));
                    }
                    HExpr::StoreLocal(*slot, Box::new(v))
                }
                Some(_) => {
                    return Err(self.type_err(format!("'{name}' is not an assignable local"), span))
                }
                None => return Err(self.type_err(format!("unknown variable '{name}'"), span)),
            },
            LValue::Field { param, field } => {
                let scope = self.param_scope(param, span, frame)?;
                let decl = self.schema.field(scope, field).ok_or_else(|| {
                    self.type_err(format!("no field '{field}' in {scope} scope"), span)
                })?;
                if decl.access != Access::ReadWrite {
                    return Err(
                        self.type_err(format!("{scope} field '{field}' is read-only"), span)
                    );
                }
                HExpr::StoreField(scope, decl.slot, Box::new(v))
            }
            LValue::ArrayElem {
                array,
                index,
                field,
            } => {
                let id = match frame.lookup(array) {
                    Some(Binding::Array(id)) => *id,
                    _ => {
                        return Err(
                            self.type_err(format!("'{array}' is not a global array alias"), span)
                        )
                    }
                };
                if self.schema.arrays()[id as usize].access != Access::ReadWrite {
                    return Err(self.type_err(
                        format!(
                            "global array '{}' is read-only",
                            self.schema.arrays()[id as usize].name
                        ),
                        span,
                    ));
                }
                let (stride, offset) = self.array_target(id, field.as_deref(), span)?;
                let (idx, it) = self.expr(index, frame)?;
                self.require_int(it, span, "array index")?;
                HExpr::StoreArr {
                    id,
                    stride,
                    offset,
                    index: Box::new(idx),
                    value: Box::new(v),
                }
            }
        };
        Ok((h, Ty::Unit))
    }

    fn call(
        &mut self,
        name: &str,
        args: &[Expr],
        span: Span,
        frame: &mut Frame,
    ) -> Result<(HExpr, Ty), CompileError> {
        let builtin = match name {
            "rand" => Some(Builtin::Rand),
            "randRange" => Some(Builtin::RandRange),
            "now" => Some(Builtin::Now),
            "hash" => Some(Builtin::Hash),
            "drop" => Some(Builtin::Drop),
            "setQueue" => Some(Builtin::SetQueue),
            "toController" => Some(Builtin::ToController),
            "gotoTable" => Some(Builtin::GotoTable),
            _ => None,
        };
        if let Some(b) = builtin {
            let mut hargs = Vec::with_capacity(args.len());
            for a in args {
                let (h, t) = self.expr(a, frame)?;
                self.require_int(t, a.span, "builtin argument")?;
                hargs.push(h);
            }
            let ty = if builtin_returns_value(name) {
                Ty::Int
            } else {
                Ty::Unit
            };
            return Ok((
                HExpr::CallBuiltin {
                    builtin: b,
                    args: hargs,
                },
                ty,
            ));
        }

        let (id, declared_arity, captures) = match frame.lookup(name) {
            Some(Binding::Func {
                id,
                arity,
                captures,
            }) => (*id, *arity, captures.clone()),
            Some(_) => return Err(self.type_err(format!("'{name}' is not a function"), span)),
            None => return Err(self.type_err(format!("unknown function '{name}'"), span)),
        };
        if args.len() != declared_arity {
            return Err(self.type_err(
                format!(
                    "function '{name}' takes {declared_arity} argument(s), found {}",
                    args.len()
                ),
                span,
            ));
        }
        let mut hargs = Vec::with_capacity(args.len() + captures.len());
        for a in args {
            let (h, t) = self.expr(a, frame)?;
            self.require_int(t, a.span, "function argument")?;
            hargs.push(h);
        }
        for cname in &captures {
            match frame.lookup(cname) {
                Some(Binding::Local { slot, .. }) => hargs.push(HExpr::Local(*slot)),
                _ => {
                    return Err(self.type_err(
                        format!("function '{name}' captures '{cname}', which is not in scope here"),
                        span,
                    ))
                }
            }
        }
        Ok((
            HExpr::Call {
                func: id,
                args: hargs,
            },
            Ty::Int,
        ))
    }

    fn array_target(
        &self,
        id: u8,
        field: Option<&str>,
        span: Span,
    ) -> Result<(u8, u8), CompileError> {
        let decl = &self.schema.arrays()[id as usize];
        let stride = decl.stride() as u8;
        let offset = match field {
            Some(f) => decl.field_offset(f).ok_or_else(|| {
                self.type_err(format!("array '{}' has no field '{f}'", decl.name), span)
            })? as u8,
            None if decl.stride() == 1 => 0,
            None => {
                return Err(self.type_err(
                    format!(
                        "array '{}' holds structs; select a field after the index",
                        decl.name
                    ),
                    span,
                ))
            }
        };
        Ok((stride, offset))
    }

    fn param_scope(&self, name: &str, span: Span, frame: &Frame) -> Result<Scope, CompileError> {
        match frame.lookup(name) {
            Some(Binding::Param(s)) => Ok(*s),
            _ => Err(self.type_err(
                format!("'{name}' is not a state parameter (packet/msg/global)"),
                span,
            )),
        }
    }

    fn require_int(&self, ty: Ty, span: Span, what: &str) -> Result<(), CompileError> {
        if ty == Ty::Int {
            Ok(())
        } else {
            Err(self.type_err(format!("{what} must be an integer, found unit"), span))
        }
    }

    fn type_err(&self, msg: String, span: Span) -> CompileError {
        CompileError::new(ErrorKind::Type(msg), span)
    }
}

/// Collect, in first-use order, names free in `e` that resolve to locals of
/// `frame` (the frame where the `let rec` is being defined). `bound` holds
/// names bound inside the function body so far. Calls to previously-defined
/// functions pull that function's captures in transitively.
fn scan_free_locals(e: &Expr, bound: &mut Vec<Vec<String>>, frame: &Frame, acc: &mut Vec<String>) {
    let is_bound =
        |bound: &Vec<Vec<String>>, n: &str| bound.iter().any(|scope| scope.iter().any(|b| b == n));
    let note = |bound: &Vec<Vec<String>>, acc: &mut Vec<String>, n: &str| {
        if !is_bound(bound, n)
            && matches!(frame.lookup(n), Some(Binding::Local { .. }))
            && !acc.iter().any(|c| c == n)
        {
            acc.push(n.to_string());
        }
    };
    match &e.kind {
        ExprKind::Int(_) => {}
        ExprKind::Var(n) => note(bound, acc, n),
        ExprKind::Field { .. } => {} // params/aliases, never locals
        ExprKind::Index { index, .. } => scan_free_locals(index, bound, frame, acc),
        ExprKind::Bin { lhs, rhs, .. } => {
            scan_free_locals(lhs, bound, frame, acc);
            scan_free_locals(rhs, bound, frame, acc);
        }
        ExprKind::Neg(x) | ExprKind::Not(x) => scan_free_locals(x, bound, frame, acc),
        ExprKind::Let {
            name, value, body, ..
        } => {
            scan_free_locals(value, bound, frame, acc);
            bound.push(vec![name.clone()]);
            scan_free_locals(body, bound, frame, acc);
            bound.pop();
        }
        ExprKind::LetRec {
            name,
            params,
            fn_body,
            body,
        } => {
            let mut inner_scope = params.clone();
            inner_scope.push(name.clone());
            bound.push(inner_scope);
            scan_free_locals(fn_body, bound, frame, acc);
            bound.pop();
            bound.push(vec![name.clone()]);
            scan_free_locals(body, bound, frame, acc);
            bound.pop();
        }
        ExprKind::Assign { lhs, value } => {
            scan_free_locals(value, bound, frame, acc);
            match lhs {
                LValue::Local(n) => note(bound, acc, n),
                LValue::Field { .. } => {}
                LValue::ArrayElem { index, .. } => scan_free_locals(index, bound, frame, acc),
            }
        }
        ExprKind::If { cond, then, els } => {
            scan_free_locals(cond, bound, frame, acc);
            scan_free_locals(then, bound, frame, acc);
            if let Some(f) = els {
                scan_free_locals(f, bound, frame, acc);
            }
        }
        ExprKind::Seq(stmts) => {
            for s in stmts {
                scan_free_locals(s, bound, frame, acc);
            }
        }
        ExprKind::Call { name, args } => {
            for a in args {
                scan_free_locals(a, bound, frame, acc);
            }
            // transitive captures of an already-defined callee
            if !is_bound(bound, name) {
                if let Some(Binding::Func { captures, .. }) = frame.lookup(name) {
                    for c in captures.clone() {
                        note(bound, acc, &c);
                    }
                }
            }
        }
    }
}
