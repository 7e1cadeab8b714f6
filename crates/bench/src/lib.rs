//! # rpcv-bench — experiment harnesses
//!
//! One bench target per figure of the paper's evaluation section (run with
//! `cargo bench -p rpcv-bench --bench fig<N>_...`, or all of them via
//! `cargo bench`).  Each harness regenerates the figure's series: it prints
//! the rows to stdout and writes a CSV under `target/figures/`.
//! EXPERIMENTS.md records the paper-vs-measured comparison.
//!
//! Beyond the figures, three invariant benches write a `BENCH_*.json`
//! artifact at the repo root through [`write_bench_json`]: `--bench scale`
//! sweeps grid sizes (schema in ROADMAP.md "Performance notes"), `--bench
//! ckpt` sweeps checkpoint policies against heterogeneous volatility
//! (wasted work vs checkpoint bytes paid) and `--bench chaos` runs the
//! seeded fault-plan safety sweep.  `--bench micro` keeps the
//! machine-independent ratio groups (`store_scale`, `pull_window`,
//! `queue_push_pop`: each index against its retained full-scan or heap
//! reference) and the Alcatel evaluator; absolute per-primitive costs are
//! measured by `benchmark/`'s layer drivers.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Where figure CSVs are written.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Collects one figure's series and emits stdout + CSV.
pub struct Figure {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Figure {
    /// New figure with column names.
    pub fn new(name: &str, columns: &[&str]) -> Self {
        println!("# {name}");
        println!("# {}", columns.join(", "));
        Figure {
            name: name.to_owned(),
            header: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Adds a row (floats formatted compactly).
    pub fn row(&mut self, values: &[f64]) {
        let formatted: Vec<String> = values.iter().map(|v| fmt_val(*v)).collect();
        println!("{}", formatted.join("\t"));
        self.rows.push(formatted);
    }

    /// Adds a row with a leading string cell (labelled events).
    pub fn row_labelled(&mut self, label: &str, values: &[f64]) {
        let mut formatted = vec![label.to_owned()];
        formatted.extend(values.iter().map(|v| fmt_val(*v)));
        println!("{}", formatted.join("\t"));
        self.rows.push(formatted);
    }

    /// Writes the CSV and reports the path.
    pub fn finish(self) {
        let mut csv = String::new();
        let _ = writeln!(csv, "{}", self.header.join(","));
        for row in &self.rows {
            let _ = writeln!(csv, "{}", row.join(","));
        }
        let path = out_dir().join(format!("{}.csv", self.name));
        match fs::write(&path, csv) {
            Ok(()) => println!("# wrote {}\n", path.display()),
            Err(e) => println!("# could not write {}: {e}\n", path.display()),
        }
    }
}

/// Writes `BENCH_<name>.json` at the repo root — the one emitter behind
/// the three invariant artifacts (`scale`, `ckpt`, `chaos`): the
/// `bench` / `schema_version` / `smoke` prologue, `rows` (pre-formatted
/// JSON objects, one per line) under `rows_key`, then `totals`
/// (pre-formatted lines; may be empty).  Exits non-zero when the file
/// cannot be written: a point that silently fails to land would let CI
/// validate a stale committed file.
pub fn write_bench_json(
    name: &str,
    schema_version: u32,
    smoke: bool,
    rows_key: &str,
    rows: &[String],
    totals: &[String],
) {
    let mut out = format!(
        "{{\n  \"bench\": \"{name}\",\n  \"schema_version\": {schema_version},\n  \
         \"smoke\": {smoke},\n  \"{rows_key}\": [\n"
    );
    out += &rows.iter().map(|r| format!("    {r}")).collect::<Vec<_>>().join(",\n");
    out += if totals.is_empty() { "\n  ]\n" } else { "\n  ],\n" };
    for line in totals {
        let _ = writeln!(out, "  {line}");
    }
    out += "}\n";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{name}.json"));
    match fs::write(&path, out) {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => {
            eprintln!("# FATAL: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn fmt_val(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_writes_csv() {
        let mut f = Figure::new("selftest", &["x", "y"]);
        f.row(&[1.0, 2.5]);
        f.row_labelled("ev", &[3.0]);
        f.finish();
        let path = out_dir().join("selftest.csv");
        let content = fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("x,y\n"));
        assert!(content.contains("1,2.5000"));
        assert!(content.contains("ev,3"));
        let _ = fs::remove_file(path);
    }
}
