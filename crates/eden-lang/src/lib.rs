//! # eden-lang — the Eden action-function language
//!
//! The paper writes action functions "in a high-level domain specific
//! language using F# code quotations" (§3.4.2) and compiles them to bytecode
//! for the enclave interpreter. Rust has no quotation mechanism, so this
//! crate provides the same pipeline with a textual front end: an
//! F#-flavoured surface syntax (the paper's Figure 7 ports almost verbatim,
//! see below), a type checker driven by the paper's state *annotations*
//! (Figure 8: lifetime, access control, header mapping), and a compiler to
//! [`eden_vm`] bytecode with the tail-recursion-to-loop optimization the
//! paper calls out (§3.4.4).
//!
//! The language is deliberately the paper's subset: integers and booleans
//! only (no objects, exceptions, or floating point), `let` / `let mutable` /
//! `let rec`, `if`/`elif`/`else` expressions, field access on the three
//! function parameters (`packet`, `msg`, `_global`), global array indexing
//! `xs.[i]`, assignment `<-`, and the builtins `rand()`, `randRange(n)`,
//! `now()`, `hash(a, b)`, `drop()`, `setQueue(q, charge)`,
//! `toController()`, `gotoTable(t)`.
//!
//! ## Example — the paper's Figure 7 (PIAS priority selection)
//!
//! ```
//! use eden_lang::{compile, Schema, Access, HeaderField};
//!
//! let schema = Schema::new()
//!     .packet_field("Size", Access::ReadOnly, Some(HeaderField::Ipv4TotalLength))
//!     .packet_field("Priority", Access::ReadWrite, Some(HeaderField::Dot1qPcp))
//!     .msg_field("Size", Access::ReadWrite)
//!     .msg_field("Priority", Access::ReadOnly)
//!     .global_array("Priorities", &["MessageSizeLimit", "Priority"], Access::ReadOnly);
//!
//! let src = r#"
//! fun (packet: Packet, msg: Message, _global: Global) ->
//!     let msg_size = msg.Size + packet.Size
//!     msg.Size <- msg_size
//!     let priorities = _global.Priorities
//!     let rec search index =
//!         if index >= priorities.Length then 0
//!         elif msg_size <= priorities.[index].MessageSizeLimit then
//!             priorities.[index].Priority
//!         else search (index + 1)
//!     packet.Priority <-
//!         let desired = msg.Priority
//!         if desired < 1 then desired
//!         else search (0)
//! "#;
//!
//! let compiled = compile("pias", src, &schema).unwrap();
//! assert_eq!(compiled.concurrency, eden_lang::Concurrency::PerMessage);
//! ```
//!
//! The compiler "decouples state management from the function" (§1): the
//! programmer manipulates `packet.X` / `msg.Y` / `_global.Z` as ordinary
//! variables, while the emitted bytecode addresses numbered state slots that
//! the enclave binds to authoritative state and real header bytes.

mod ast;
mod compile;
mod error;
pub mod ir;
mod lexer;
mod optimize;
mod parser;
mod schema;
mod token;
mod typeck;
pub mod xfsm;

pub use compile::{compile, compile_with_options, CompileOptions, CompiledFunction};
pub use error::{CompileError, ErrorKind};
pub use schema::{Access, ArrayDecl, Concurrency, FieldDecl, HeaderField, ReplMode, Schema, Scope};
pub use token::Span;
pub use xfsm::{Helper, XAction, XBin, XExpr, XState, Xfsm};

// Internal surface used by tests and tooling.
pub use ast::Expr;
pub use lexer::lex;
pub use parser::parse;
