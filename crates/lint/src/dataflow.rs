//! Intraprocedural dataflow rules: `cast_flow` and `float_determinism`.
//!
//! `cast_flow` extends `checked_decode`'s length-arithmetic discipline to
//! the whole workspace: a length-derived value that goes through a lossy
//! `as` integer cast (optionally with unchecked `+`/`*`) is *tainted*,
//! and a tainted value reaching an allocation or indexing sink
//! (`Vec::with_capacity`, `.reserve`, `vec![_; n]`, `buf[x]`) is a
//! finding — a huge or crafted length truncates at the cast and the sink
//! then allocates or indexes on the wrong number. Guarded flows
//! (`min`/`clamp`/`checked_*`/`try_from`/`saturating_*`/`div_ceil`) are
//! clean, as are decode-path functions already owned by `checked_decode`.
//!
//! `float_determinism` flags order-sensitive `f32` reduction loops
//! (`let mut acc = 0.0; ... acc += ...` and `.sum::<f32>()`) in the
//! kernel crates outside the sanctioned fixed-shape reductions — any body
//! that derives its traversal from `REDUCE_BLOCK` or the lane-width `LANES`
//! constant is sanctioned, because those kernels pin the reduction tree
//! shape byte-stably regardless of caller slicing.

use std::collections::BTreeSet;

use crate::lexer::{is_ident, is_punct, Tok, Token};
use crate::rules::is_lengthish;
use crate::symbols::SymbolTable;
use crate::{FileUnit, Finding};

/// Integer types an `as` cast can truncate into.
const INT_TYPES: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64",
];

/// Guard call names that sanitise a length before a sink.
fn is_guard(name: &str) -> bool {
    name == "min"
        || name == "clamp"
        || name == "try_from"
        || name == "div_ceil"
        || name.starts_with("checked_")
        || name.starts_with("saturating_")
}

/// Whether the inclusive token range holds a lossy `as <int>` cast.
fn has_int_cast(tokens: &[Token], range: std::ops::Range<usize>) -> bool {
    range.clone().any(|i| {
        is_ident(&tokens[i], "as")
            && matches!(tokens.get(i + 1), Some(n) if matches!(&n.tok, Tok::Ident(t) if INT_TYPES.contains(&t.as_str())))
    })
}

/// Like [`has_int_cast`] but only at bracket depth 0 of the range: a cast
/// buried inside a call's argument list produces the *callee's* return
/// value, not the cast value, so it must not taint the binding.
fn has_top_level_int_cast(tokens: &[Token], range: std::ops::Range<usize>) -> bool {
    let mut depth = 0i32;
    for i in range {
        match tokens[i].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
            _ => {}
        }
        if depth == 0
            && is_ident(&tokens[i], "as")
            && matches!(tokens.get(i + 1), Some(n) if matches!(&n.tok, Tok::Ident(t) if INT_TYPES.contains(&t.as_str())))
        {
            return true;
        }
    }
    false
}

/// Whether the range mentions a guard call.
fn has_guard(tokens: &[Token], range: std::ops::Range<usize>) -> bool {
    range
        .clone()
        .any(|i| matches!(&tokens[i].tok, Tok::Ident(n) if is_guard(n)))
}

/// Whether the range mentions a length-like or already-tainted name.
/// Cast target types are excluded — `usize` contains the `size` fragment
/// but names the type, not a length source.
fn has_length_source(
    tokens: &[Token],
    range: std::ops::Range<usize>,
    tainted: &BTreeSet<String>,
) -> bool {
    range.clone().any(|i| {
        matches!(&tokens[i].tok, Tok::Ident(n) if !INT_TYPES.contains(&n.as_str())
            && (is_lengthish(n) || tainted.contains(n)))
    })
}

/// Token index of the `;` (or unbalanced end) closing the statement
/// starting at `i`, scanning no further than `end`.
fn statement_end(tokens: &[Token], i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut k = i;
    while k <= end {
        match tokens[k].tok {
            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
            Tok::Punct(';') if depth <= 0 => return k,
            _ => {}
        }
        k += 1;
    }
    end
}

/// Runs `cast_flow` over every non-test fn body in the workspace.
pub fn cast_flow(units: &[FileUnit], table: &SymbolTable, findings: &mut Vec<Finding>) {
    for sym in &table.fns {
        if sym.in_test {
            continue;
        }
        // Decode paths are `checked_decode`'s jurisdiction — one finding
        // per defect, not two.
        if sym.name == "from_bytes" || sym.name.contains("decode") {
            continue;
        }
        let unit = &units[sym.file];
        check_body(unit, sym.body, findings);
    }
}

/// The taint walk over one body span.
fn check_body(unit: &FileUnit, body: (usize, usize), findings: &mut Vec<Finding>) {
    let toks = &unit.tokens;
    let (start, end) = body;
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    let mut i = start;
    while i <= end {
        // Taint source: `let [mut] name = <expr>;` whose RHS casts a
        // length-derived value with `as <int>` and is unguarded.
        if is_ident(&toks[i], "let") {
            let mut j = i + 1;
            if matches!(toks.get(j), Some(n) if is_ident(n, "mut")) {
                j += 1;
            }
            if let Some(Tok::Ident(name)) = toks.get(j).map(|t| &t.tok) {
                if matches!(toks.get(j + 1), Some(n) if is_punct(n, '=')) {
                    let stop = statement_end(toks, j + 2, end);
                    let rhs = j + 2..stop;
                    if has_top_level_int_cast(toks, rhs.clone())
                        && has_length_source(toks, rhs.clone(), &tainted)
                        && !has_guard(toks, rhs.clone())
                    {
                        tainted.insert(name.clone());
                    }
                    // Advance past the binding only: the RHS may itself
                    // contain a sink fed by a previously tainted name.
                    i = j + 2;
                    continue;
                }
            }
        }
        // Allocation sinks: `with_capacity(expr)` / `reserve(expr)` /
        // `vec![init; expr]`.
        if let Tok::Ident(name) = &toks[i].tok {
            let sink = (name == "with_capacity" || name == "reserve")
                && matches!(toks.get(i + 1), Some(n) if is_punct(n, '('));
            if sink {
                let close = matching(toks, i + 1, end);
                let arg = i + 2..close;
                if sink_is_hot(toks, arg.clone(), &tainted) {
                    findings.push(finding(unit, toks[i].line, name, &tainted, toks, arg));
                    i = close + 1;
                    continue;
                }
            }
            if name == "vec" && matches!(toks.get(i + 1), Some(n) if is_punct(n, '!')) {
                if let Some(open) = (i + 2..=end).next().filter(|&k| is_punct(&toks[k], '[')) {
                    let close = matching(toks, open, end);
                    // The repeat form's length is everything after `;`.
                    if let Some(semi) = (open..close).find(|&k| is_punct(&toks[k], ';')) {
                        let arg = semi + 1..close;
                        if sink_is_hot(toks, arg.clone(), &tainted) {
                            findings.push(finding(
                                unit,
                                toks[i].line,
                                "vec![..; n]",
                                &tainted,
                                toks,
                                arg,
                            ));
                            i = close + 1;
                            continue;
                        }
                    }
                }
            }
        }
        // Indexing sink: `buf[t]` with a single tainted identifier.
        if is_punct(&toks[i], '[')
            && i > start
            && matches!(&toks[i - 1].tok, Tok::Ident(_))
            && matches!(toks.get(i + 2), Some(n) if is_punct(n, ']'))
        {
            if let Some(Tok::Ident(idx)) = toks.get(i + 1).map(|t| &t.tok) {
                if tainted.contains(idx) {
                    findings.push(Finding {
                        rule: "cast_flow",
                        path: unit.rel_path.clone(),
                        line: toks[i].line,
                        message: format!(
                            "`{idx}` is a length-derived value that went through an unchecked `as` \
                             cast and now indexes a slice; validate with `usize::try_from`/bounds \
                             `min` before the cast so a crafted length fails instead of wrapping"
                        ),
                    });
                    i += 3;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// Whether a sink argument range carries unguarded tainted/cast length.
fn sink_is_hot(toks: &[Token], arg: std::ops::Range<usize>, tainted: &BTreeSet<String>) -> bool {
    if has_guard(toks, arg.clone()) {
        return false;
    }
    let carries_taint = arg
        .clone()
        .any(|k| matches!(&toks[k].tok, Tok::Ident(n) if tainted.contains(n)));
    // Inline form: the cast happens right in the argument.
    let inline = has_int_cast(toks, arg.clone())
        && arg
            .clone()
            .any(|k| matches!(&toks[k].tok, Tok::Ident(n) if is_lengthish(n)));
    carries_taint || inline
}

fn matching(toks: &[Token], open: usize, end: usize) -> usize {
    crate::callgraph::matching_close(toks, open, end)
}

fn finding(
    unit: &FileUnit,
    line: u32,
    sink: &str,
    tainted: &BTreeSet<String>,
    toks: &[Token],
    arg: std::ops::Range<usize>,
) -> Finding {
    let carrier = arg
        .clone()
        .find_map(|k| match &toks[k].tok {
            Tok::Ident(n) if tainted.contains(n) || is_lengthish(n) => Some(n.clone()),
            _ => None,
        })
        .unwrap_or_else(|| "length".to_string());
    Finding {
        rule: "cast_flow",
        path: unit.rel_path.clone(),
        line,
        message: format!(
            "length-derived `{carrier}` reaches `{sink}` through an unchecked `as` cast; \
             validate with `usize::try_from` or bound with `.min(..)` before allocating"
        ),
    }
}

/// Runs `float_determinism` over the kernel crates' non-test fn bodies.
pub fn float_determinism(
    units: &[FileUnit],
    table: &SymbolTable,
    float_crates: &[String],
    findings: &mut Vec<Finding>,
) {
    for sym in &table.fns {
        if sym.in_test || !float_crates.contains(&sym.crate_name) {
            continue;
        }
        let unit = &units[sym.file];
        let toks = &unit.tokens;
        let (start, end) = sym.body;
        // Sanctioned: the body shapes its traversal with the fixed-size
        // reduction block or the lane-width constant — the reduction tree
        // is pinned regardless of input length.
        let sanctioned = (start..=end)
            .any(|i| is_ident(&toks[i], "REDUCE_BLOCK") || is_ident(&toks[i], "LANES"));
        if sanctioned {
            continue;
        }
        // Detector 1: scalar float accumulator `let mut x = 0.0; .. x += ..`.
        let mut accs: Vec<String> = Vec::new();
        for i in start..=end {
            if !is_ident(&toks[i], "let") {
                continue;
            }
            let mut j = i + 1;
            if matches!(toks.get(j), Some(n) if is_ident(n, "mut")) {
                j += 1;
            } else {
                continue;
            }
            let Some(Tok::Ident(name)) = toks.get(j).map(|t| &t.tok) else {
                continue;
            };
            // `= 0.0` or `= 0.0f32` (typed float literal).
            if matches!(toks.get(j + 1), Some(n) if is_punct(n, '='))
                && matches!(toks.get(j + 2), Some(n) if matches!(n.tok, Tok::Float))
            {
                accs.push(name.clone());
            }
        }
        for i in start..=end {
            if let Tok::Ident(name) = &toks[i].tok {
                let deref = i > start && is_punct(&toks[i - 1], '*');
                let compound = matches!(toks.get(i + 1), Some(n) if is_punct(n, '+'))
                    && matches!(toks.get(i + 2), Some(n) if is_punct(n, '='));
                if compound && !deref && accs.contains(name) {
                    findings.push(Finding {
                        rule: "float_determinism",
                        path: unit.rel_path.clone(),
                        line: toks[i].line,
                        message: format!(
                            "`{name} +=` accumulates floats in traversal order; route the \
                             reduction through the REDUCE_BLOCK-chunked kernels (ops::sum_* / \
                             block::*) so the tree shape is pinned"
                        ),
                    });
                }
            }
        }
        // Detector 2: `.sum::<f32>()` / `.sum::<f64>()` iterator folds.
        for i in start..=end {
            if is_ident(&toks[i], "sum")
                && i > start
                && is_punct(&toks[i - 1], '.')
                && matches!(toks.get(i + 1), Some(n) if is_punct(n, ':'))
                && matches!(toks.get(i + 3), Some(n) if is_punct(n, '<'))
                && matches!(toks.get(i + 4), Some(n) if is_ident(n, "f32") || is_ident(n, "f64"))
            {
                findings.push(Finding {
                    rule: "float_determinism",
                    path: unit.rel_path.clone(),
                    line: toks[i].line,
                    message: "`.sum::<float>()` folds in iterator order; use the \
                              REDUCE_BLOCK-chunked kernel so two runs reduce in the same tree"
                        .to_string(),
                });
            }
        }
    }
}
