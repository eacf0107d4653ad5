//! **no-panic-in-request-path**: `unwrap`/`expect` and the panic macro
//! family are denied in the serve request handlers, the three I/O
//! choke points (buffer-pool faulting, WAL writer, group-commit flush
//! stage) and the Blob State extent cursor every read path maps byte
//! ranges through. On the serving path, slice/array indexing is denied too: a
//! malformed frame must become an error response, not a worker panic
//! that takes a connection's leases down the unwind path.
//!
//! `debug_assert!`/`assert!` stay legal — invariant checks are how the
//! protocols document themselves; it is the *unintentional* panic
//! (indexing, unwrap-on-Err) this rule hunts.

use super::push;
use crate::config::LintConfig;
use crate::lexer::TokKind;
use crate::{Diagnostic, SourceFile};

const RULE: &str = "no-panic-in-request-path";

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that legitimately precede a `[` starting an array literal
/// or pattern, not an index expression.
const NON_INDEX_PREV: &[&str] = &[
    "if", "in", "else", "match", "return", "break", "loop", "while", "for", "move", "ref", "mut",
    "let", "as", "box", "dyn", "impl", "where",
];

pub fn check(f: &SourceFile, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
    let Some(scope) = cfg.panic_scopes.iter().find(|s| s.path == f.rel) else {
        return;
    };
    let toks = &f.lx.toks;
    for i in 0..toks.len() {
        let t = &toks[i];
        if f.in_test_mod(t.line) {
            continue;
        }
        // `.unwrap(` / `.expect(`
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
        {
            push(
                out,
                f,
                cfg,
                RULE,
                t.line,
                t.col,
                format!("`.{}()` on the request/choke-point path", t.text),
                "return an error (`?`, `ok_or`) so the failure degrades to an error \
                 frame / Err, not a worker panic"
                    .into(),
            );
            continue;
        }
        // `panic!(` family
        if PANIC_MACROS.iter().any(|m| t.is_ident(m))
            && toks.get(i + 1).map(|n| n.is_punct('!')) == Some(true)
            && i.checked_sub(1)
                .map(|p| !toks[p].is_punct('.'))
                .unwrap_or(true)
        {
            push(
                out,
                f,
                cfg,
                RULE,
                t.line,
                t.col,
                format!("`{}!` on the request/choke-point path", t.text),
                "surface a typed Error instead; panics unwind through lease/pin \
                 cleanup paths"
                    .into(),
            );
            continue;
        }
        // Index expression `expr[`: `[` whose previous token closes an
        // expression (identifier, `)`, or `]`).
        if scope.index && t.is_punct('[') && i > 0 {
            let p = &toks[i - 1];
            let expr_before = match &p.kind {
                TokKind::Ident => !NON_INDEX_PREV.iter().any(|k| p.is_ident(k)),
                TokKind::Punct(')') | TokKind::Punct(']') => true,
                _ => false,
            };
            // `#[attr]` never matches (previous token is `#`).
            if expr_before {
                push(
                    out,
                    f,
                    cfg,
                    RULE,
                    t.line,
                    t.col,
                    "slice/array indexing on the serving path".into(),
                    "use `.get()`/`.get_mut()` (or split_at/checked math) and map None \
                     to a protocol error"
                        .into(),
                );
            }
        }
    }
}
