//! Invariant drivers, one per untrusted-input surface.
//!
//! Each driver takes arbitrary bytes and either returns `Ok(())` or an
//! invariant-violation description. Panics are caught by the runner;
//! the contract for every surface is *totality*: malformed input must
//! come back as a structured `Err`, well-formed input must satisfy the
//! surface's round-trip law.

use llhsc_dts::cells::{decode_reg, MAX_CELLS};
use llhsc_dts::{Node, Property};
use llhsc_sat::{
    check_drat, CheckMode, Cnf, DimacsError, Lit, SolveResult, Solver, SolverConfig, Var,
};
use llhsc_service::Json;

/// DTS text: parse is total; on success, print → parse is a fixpoint
/// (the printer emits text the parser maps back to the same rendering).
/// The same bytes are also fed to the FDT blob decoder, which must be
/// total as well.
pub fn dts(input: &[u8]) -> Result<(), String> {
    let _ = llhsc_dts::fdt::decode(input);
    let _ = llhsc_dts::fdt::decode_typed(input);

    let text = String::from_utf8_lossy(input);
    let Ok(tree) = llhsc_dts::parse(&text) else {
        return Ok(());
    };
    let printed = llhsc_dts::print(&tree);
    let reparsed = llhsc_dts::parse(&printed)
        .map_err(|e| format!("printed output does not reparse: {e}\n--- printed ---\n{printed}"))?;
    let printed_again = llhsc_dts::print(&reparsed);
    if printed_again != printed {
        return Err(format!(
            "print is not a fixpoint after one round trip\n--- first ---\n{printed}\n--- second ---\n{printed_again}"
        ));
    }
    Ok(())
}

/// Packs big-endian cells into a `u128` the obvious way — an
/// independent reference for `decode_reg`'s windowed accumulation.
fn be_reference(cells: &[u32]) -> u128 {
    let mut bytes = [0u8; 16];
    for (i, c) in cells.iter().rev().enumerate() {
        let off = 16 - 4 * (i + 1);
        bytes[off..off + 4].copy_from_slice(&c.to_be_bytes());
    }
    u128::from_be_bytes(bytes)
}

/// `reg` decoding: cell counts and cell payloads are attacker-chosen.
/// Decode must be total, must reject counts outside `0..=MAX_CELLS`,
/// and on success every decoded `(address, size)` must equal an
/// independent big-endian interpretation of the same cells (no silently
/// dropped high bits — the paper's truncation-bug class).
pub fn cells(input: &[u8]) -> Result<(), String> {
    let mut it = input.iter().copied();
    let address_cells = u32::from(it.next().unwrap_or(2)) % 6;
    let size_cells = u32::from(it.next().unwrap_or(1)) % 6;
    let payload: Vec<u8> = it.collect();
    let cells: Vec<u32> = payload
        .chunks(4)
        .map(|c| {
            let mut w = [0u8; 4];
            w[..c.len()].copy_from_slice(c);
            u32::from_be_bytes(w)
        })
        .collect();

    let mut node = Node::new("dev");
    node.set_prop(Property::cells("reg", cells.iter().copied()));
    let entries = match decode_reg("/", &node, address_cells, size_cells) {
        Ok(entries) => entries,
        Err(_) => return Ok(()),
    };
    if address_cells > MAX_CELLS || size_cells > MAX_CELLS {
        return Err(format!(
            "decode_reg accepted cell counts ({address_cells}, {size_cells}) beyond MAX_CELLS"
        ));
    }
    let stride = (address_cells + size_cells) as usize;
    for (i, entry) in entries.iter().enumerate() {
        let chunk = &cells[i * stride..(i + 1) * stride];
        let want_addr = be_reference(&chunk[..address_cells as usize]);
        let want_size = be_reference(&chunk[address_cells as usize..]);
        if entry.address != want_addr || entry.size != want_size {
            return Err(format!(
                "entry {i}: decoded ({:#x}, {:#x}), reference ({want_addr:#x}, {want_size:#x})",
                entry.address, entry.size
            ));
        }
        // end() must never wrap silently.
        if entry.end() < entry.address {
            return Err(format!("entry {i}: end() wrapped below address"));
        }
    }
    Ok(())
}

/// Service JSON: parse is total and depth-limited; on success,
/// parse → print → parse yields an equal value and printing is a
/// fixpoint (sorted keys make rendering canonical).
pub fn json(input: &[u8]) -> Result<(), String> {
    let text = String::from_utf8_lossy(input);
    let Ok(value) = Json::parse(&text) else {
        return Ok(());
    };
    let printed = value.to_string();
    let reparsed = Json::parse(&printed)
        .map_err(|e| format!("printed JSON does not reparse: {e}\n--- printed ---\n{printed}"))?;
    if reparsed != value {
        return Err(format!(
            "JSON round trip changed the value\n--- printed ---\n{printed}"
        ));
    }
    if reparsed.to_string() != printed {
        return Err("JSON printing is not a fixpoint".into());
    }
    Ok(())
}

/// DIMACS: parse is total, every parse-level error names its line, and
/// accepted formulas survive write → parse unchanged.
pub fn dimacs(input: &[u8]) -> Result<(), String> {
    match llhsc_sat::parse_dimacs(input) {
        Ok(cnf) => {
            let mut buf = Vec::new();
            llhsc_sat::write_dimacs(&cnf, &mut buf)
                .map_err(|e| format!("write_dimacs failed on accepted input: {e}"))?;
            let back = llhsc_sat::parse_dimacs(buf.as_slice())
                .map_err(|e| format!("own DIMACS output does not reparse: {e}"))?;
            if back != cnf {
                return Err("DIMACS round trip changed the formula".into());
            }
            Ok(())
        }
        Err(DimacsError::Io(_)) => Ok(()),
        Err(e) => {
            let rendered = e.to_string();
            if rendered.starts_with("line ") {
                Ok(())
            } else {
                Err(format!("parse error carries no line number: {rendered}"))
            }
        }
    }
}

/// Differential testing of the CDCL solver itself: the input bytes
/// encode a small random CNF (≤ 10 variables, ≤ 24 short clauses, so
/// an exhaustive truth-table check stays cheap), solved with a Luby
/// restart base of 1 so that restarts fire on toy instances.
/// Clause-database reduction waits for 100 learnt clauses, so it is
/// left to `Solver`'s own tests. The verdict is checked against
/// brute-force enumeration, a `Sat` model is evaluated against every
/// clause, and an `Unsat` verdict's DRAT proof is replayed through
/// [`check_drat`]: a refutation the in-tree checker rejects is an
/// invariant violation, not just a wrong answer.
pub fn sat(input: &[u8]) -> Result<(), String> {
    let mut it = input.iter().copied();
    let num_vars = 1 + usize::from(it.next().unwrap_or(3)) % 10;
    let num_clauses = 1 + usize::from(it.next().unwrap_or(7)) % 24;
    let mut clauses: Vec<Vec<Lit>> = Vec::with_capacity(num_clauses);
    for _ in 0..num_clauses {
        let len = 1 + usize::from(it.next().unwrap_or(0)) % 3;
        let mut clause = Vec::with_capacity(len);
        for _ in 0..len {
            let v = usize::from(it.next().unwrap_or(0)) % num_vars;
            let positive = it.next().unwrap_or(0) & 1 != 0;
            clause.push(Lit::new(Var::from_index(v), positive));
        }
        clauses.push(clause);
    }

    // Exhaustive reference verdict over all 2^num_vars assignments.
    let satisfied = |clause: &[Lit], bits: u32| {
        clause
            .iter()
            .any(|l| (bits >> l.var().index()) & 1 == u32::from(l.is_positive()))
    };
    let reference_sat =
        (0u32..1 << num_vars).any(|bits| clauses.iter().all(|c| satisfied(c, bits)));

    let mut solver = Solver::with_config(SolverConfig {
        restart_base: 1,
        ..SolverConfig::default()
    });
    solver.enable_proof();
    for _ in 0..num_vars {
        solver.new_var();
    }
    for clause in &clauses {
        solver.add_clause(clause.iter().copied());
    }
    match solver.solve() {
        SolveResult::Sat => {
            if !reference_sat {
                return Err("solver answered Sat on an unsatisfiable formula".into());
            }
            let bits = (0..num_vars).fold(0u32, |acc, i| {
                acc | u32::from(solver.value(Var::from_index(i)) == Some(true)) << i
            });
            if let Some(i) = clauses.iter().position(|c| !satisfied(c, bits)) {
                return Err(format!(
                    "model does not satisfy clause {i}: {:?}",
                    clauses[i]
                ));
            }
        }
        SolveResult::Unsat => {
            if reference_sat {
                return Err("solver answered Unsat on a satisfiable formula".into());
            }
            let mut cnf = Cnf::new();
            cnf.reserve_vars(num_vars);
            for clause in &clauses {
                cnf.add_clause(clause.iter().copied());
            }
            let proof = solver.proof().expect("proof logging was enabled");
            check_drat(&cnf, proof, CheckMode::Last)
                .map_err(|e| format!("UNSAT verdict's DRAT proof fails to check: {e}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drivers_accept_the_corpus() {
        for s in crate::corpus::DTS_SEEDS {
            dts(s.as_bytes()).unwrap();
        }
        for s in crate::corpus::JSON_SEEDS {
            json(s.as_bytes()).unwrap();
        }
        for s in crate::corpus::DIMACS_SEEDS {
            dimacs(s.as_bytes()).unwrap();
        }
    }

    #[test]
    fn cells_driver_cross_checks_decoding() {
        // 2 address cells, 2 size cells, one entry with high bits set in
        // every cell — the exact shape 64→32-bit truncation would eat.
        let mut input = vec![2, 2];
        for c in [0xdead_beefu32, 0x1234_5678, 0x0000_0001, 0x8000_0000] {
            input.extend_from_slice(&c.to_be_bytes());
        }
        cells(&input).unwrap();
    }

    #[test]
    fn cells_driver_handles_tiny_inputs() {
        cells(&[]).unwrap();
        cells(&[5]).unwrap();
        cells(&[5, 5, 1, 2, 3]).unwrap();
    }

    #[test]
    fn dimacs_driver_checks_line_numbers() {
        dimacs(b"p dnf\n").unwrap();
        dimacs(b"1 2 0\n").unwrap();
        dimacs(b"p cnf 1 1\n99 0\n").unwrap();
    }
}
