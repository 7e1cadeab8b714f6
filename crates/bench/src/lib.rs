//! # rpcv-bench — experiment harnesses
//!
//! Four benches publish a committed `BENCH_*.json` artifact at the repo
//! root, each through one [`Artifact`]: `--bench paper` regenerates the
//! paper's whole evaluation (Figs. 4–11, plus our ablations) in a few
//! seconds of virtual time, `--bench scale` sweeps grid sizes (schema in
//! ROADMAP.md "Performance notes"), `--bench ckpt` sweeps checkpoint
//! policies against heterogeneous volatility (wasted work vs checkpoint
//! bytes paid) and `--bench chaos` runs the seeded fault-plan safety sweep.
//! Every published cell is a virtual-time or counting quantity, so each file
//! regenerates byte for byte (CI reruns all four and requires no diff);
//! host-clock measurement lives in `benchmark/` and nowhere in this crate.
//! None of the benches asserts anything about its own numbers:
//! [`Artifact::finish`] hands the file it wrote to
//! `scripts/check_bench_flatness.py`, the one place a gate is written (CI
//! runs the same script on the committed files).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where figure CSVs are written.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// One typed cell of an [`Artifact`] row.
#[derive(Debug)]
pub enum Value<'a> {
    /// An integer (counts, seeds): printed exactly, never through `f64`.
    U64(u64),
    /// A float and the number of decimals it is published with.
    F64(f64, usize),
    /// A flag.
    Bool(bool),
    /// A label (quoted in the JSON, bare in the table).
    Str(&'a str),
    /// A pre-rendered nested JSON value: published in the JSON only, it has
    /// no cell in the TSV/CSV table.
    Json(String),
}

impl Value<'_> {
    fn json(&self) -> String {
        match self {
            Value::U64(v) => v.to_string(),
            Value::F64(v, decimals) => format!("{v:.decimals$}"),
            Value::Bool(v) => v.to_string(),
            Value::Str(v) => format!("\"{v}\""),
            Value::Json(v) => v.clone(),
        }
    }

    /// The table cell: the JSON token, a label bare; nested JSON has none.
    fn cell(&self) -> Option<String> {
        match self {
            Value::Json(_) => None,
            Value::Str(label) => Some((*label).to_owned()),
            scalar => Some(scalar.json()),
        }
    }
}

/// One invariant bench's published rows.  A row is `(column, value)` pairs,
/// so each column is named once — where it is filled — and lands, from the
/// same typed value, on stdout (TSV), in `target/figures/<figure>.csv` and
/// in the repo-root `BENCH_<bench>.json`.
pub struct Artifact {
    bench: &'static str,
    figure: &'static str,
    csv: String,
    /// The document so far: the prologue, then one row object per line.
    json: String,
}

impl Artifact {
    /// New artifact `BENCH_<bench>.json` (rows under `rows_key`) with its
    /// CSV twin `<figure>.csv`.
    pub fn new(
        bench: &'static str,
        figure: &'static str,
        schema_version: u32,
        rows_key: &str,
    ) -> Self {
        println!("# {figure}");
        let json = format!(
            "{{\n  \"bench\": \"{bench}\",\n  \"schema_version\": {schema_version},\n  \
             \"{rows_key}\": ["
        );
        Artifact { bench, figure, csv: String::new(), json }
    }

    /// Adds a row and prints it; the first row's column names are the header.
    ///
    /// # Panics
    /// If a later row names different columns.
    pub fn row(&mut self, cells: &[(&str, Value<'_>)]) {
        let (names, text): (Vec<&str>, Vec<String>) =
            cells.iter().filter_map(|(column, v)| Some((*column, v.cell()?))).unzip();
        let header = names.join(",") + "\n";
        if self.csv.is_empty() {
            print!("# {}", header.replace(',', ", "));
            self.csv.push_str(&header);
        }
        assert!(self.csv.starts_with(&header), "{}: columns differ from the header", self.figure);
        println!("{}", text.join("\t"));
        self.csv += &(text.join(",") + "\n");
        let fields: Vec<String> =
            cells.iter().map(|(column, v)| format!("\"{column}\": {}", v.json())).collect();
        self.json += if self.json.ends_with('[') { "\n    " } else { ",\n    " };
        self.json += &format!("{{{}}}", fields.join(", "));
    }

    /// Writes `<figures>/<figure>.csv` and `<root>/BENCH_<bench>.json` — the
    /// `bench` / `schema_version` prologue, one row object per
    /// line, then `totals` (pre-formatted lines; may be empty) — and returns
    /// the JSON's path.
    fn render(&self, totals: &[String], figures: &Path, root: &Path) -> io::Result<PathBuf> {
        fs::write(figures.join(format!("{}.csv", self.figure)), &self.csv)?;
        let mut out = self.json.clone() + if totals.is_empty() { "\n  ]\n" } else { "\n  ],\n" };
        for line in totals {
            let _ = writeln!(out, "  {line}");
        }
        out += "}\n";
        let path = root.join(format!("BENCH_{}.json", self.bench));
        fs::write(&path, out)?;
        Ok(path)
    }

    /// Publishes the artifact, then gates it: runs
    /// `scripts/check_bench_flatness.py` on the JSON just written and exits
    /// with its status.  A file that cannot be written, or a gate that cannot
    /// be run (no `python3`), is a failure: a point that silently fails to
    /// land would let CI validate a stale committed file.
    pub fn finish(self, totals: &[String]) -> ! {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let gated = self.render(totals, &out_dir(), &root).and_then(|json| {
            println!("# wrote {} and {}.csv; gating", json.display(), self.figure);
            let script = root.join("scripts/check_bench_flatness.py");
            Command::new("python3").arg(script).arg(json).status()
        });
        match gated {
            Ok(status) => std::process::exit(status.code().unwrap_or(1)),
            Err(e) => {
                eprintln!("# FATAL: BENCH_{}.json was not published and gated: {e}", self.bench);
                std::process::exit(1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_renders_csv_and_json_byte_for_byte() {
        // One value of each type.
        let mut a = Artifact::new("selftest", "selftest_rows", 7, "cells");
        for (seed, intensity, survived, policy, hist) in [
            (11400714822622042882, 0.5, true, "adaptive", "{\"count\": 1, \"buckets\": [[27, 1]]}"),
            (3, 12.8484, false, "off", "{}"),
        ] {
            a.row(&[
                ("seed", Value::U64(seed)),
                ("intensity", Value::F64(intensity, 2)),
                ("survived", Value::Bool(survived)),
                ("policy", Value::Str(policy)),
                ("hist", Value::Json(hist.to_owned())),
            ]);
        }
        let dir = out_dir().join("selftest_artifact");
        fs::create_dir_all(&dir).unwrap();
        let json = a.render(&["\"totals\": {\"plans\": 2}".to_owned()], &dir, &dir).unwrap();
        assert_eq!(json, dir.join("BENCH_selftest.json"));
        assert_eq!(
            fs::read_to_string(dir.join("selftest_rows.csv")).unwrap(),
            "seed,intensity,survived,policy\n\
             11400714822622042882,0.50,true,adaptive\n\
             3,12.85,false,off\n"
        );
        assert_eq!(
            fs::read_to_string(&json).unwrap(),
            "{\n  \"bench\": \"selftest\",\n  \"schema_version\": 7,\n  \"cells\": [\n    \
             {\"seed\": 11400714822622042882, \"intensity\": 0.50, \"survived\": true, \
             \"policy\": \"adaptive\", \"hist\": {\"count\": 1, \"buckets\": [[27, 1]]}},\n    \
             {\"seed\": 3, \"intensity\": 12.85, \"survived\": false, \"policy\": \"off\", \
             \"hist\": {}}\n  ],\n  \"totals\": {\"plans\": 2}\n}\n"
        );
        let _ = fs::remove_dir_all(dir);
    }
}
