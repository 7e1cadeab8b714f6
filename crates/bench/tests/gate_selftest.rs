//! The gate, seen failing.  `scripts/check_bench_flatness.py` is the only
//! place a gate on the four `BENCH_*.json` artifacts is written; a gate
//! nobody has seen fail is not evidence.  The committed artifacts must pass
//! unedited, and one textual mutation per gate family, on a
//! temp copy, must make the script exit non-zero *with that gate's message*.

use std::path::Path;
use std::process::Command;
use std::{fs, str};

/// Runs the gate on `doc` saved as `BENCH_<bench>.json` in a temp dir;
/// returns `(passed, stderr)`.
fn gate(bench: &str, doc: &str) -> (bool, String) {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("gate_selftest");
    fs::create_dir_all(&dir).unwrap();
    let file = dir.join(format!("BENCH_{bench}.json"));
    fs::write(&file, doc).unwrap();
    let script =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts/check_bench_flatness.py");
    let out = Command::new("python3").arg(script).arg(file).output().unwrap();
    (out.status.success(), str::from_utf8(&out.stderr).unwrap().to_owned())
}

/// `doc` with `key`'s value rewritten by `f` on the first line holding `marker`.
fn edit(doc: &str, marker: &str, key: &str, f: fn(f64) -> f64) -> String {
    let line = doc.lines().find(|l| l.contains(marker)).expect("marker line");
    let at = line.find(&format!("\"{key}\": ")).expect("key on the marker line") + key.len() + 4;
    let end = at + line[at..].find([',', '}']).unwrap();
    let new = format!("{}{}{}", &line[..at], f(line[at..end].parse().unwrap()), &line[end..]);
    doc.replacen(line, &new, 1)
}

#[test]
fn every_gate_family_fails_on_its_mutation() {
    let read = |bench: &str| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        fs::read_to_string(root.join(format!("BENCH_{bench}.json"))).unwrap()
    };
    let (scale, ckpt, chaos, paper) = (read("scale"), read("ckpt"), read("chaos"), read("paper"));
    for (bench, doc) in [("scale", &scale), ("ckpt", &ckpt), ("chaos", &chaos), ("paper", &paper)] {
        let (passed, err) = gate(bench, doc);
        assert!(passed, "committed BENCH_{bench}.json must pass unedited: {err}");
    }
    let must_fail = |bench: &str, mutant: String, message: &str| {
        let (passed, err) = gate(bench, &mutant);
        assert!(!passed && err.contains(message), "{bench} mutant {message:?} must fail: {err}");
    };
    // One cell's value moved: (line marker, key, new value, the gate's message).
    let moved = |marker: &str, key: &str, f: fn(f64) -> f64, message: &str| {
        must_fail("scale", edit(&scale, marker, key, f), message)
    };
    let twin = "\"jobs\": 100000, \"clients\": 16";
    moved(twin, "job_p99_ms", |_| 1.0, "quantiles are broken");
    moved(twin, "delta_bytes_per_round", |v| v * 3.0, "delta bytes/round grew");
    moved(twin, "resident_rows", |_| 4000.0, "resident rows grew");
    moved(twin, "catalog_bytes_per_beat", |v| v * 100.0, "catalog bytes/beat grew");
    moved("\"shards\": 4", "sim_events_per_sec", |v| v / 2.0, "below the near-linear floor");
    let worse = edit(&ckpt, "\"adaptive\"", "wasted_units", |_| 9999.0);
    must_fail("ckpt", worse, "must beat from-scratch");
    // One cell of a paper figure moved: (row marker, its new y, that band's message).
    let cell = |marker: &str, f: fn(f64) -> f64, message: &str| {
        must_fail("paper", edit(&paper, marker, "y", f), message)
    };
    // Fig. 4's blocking pessimistic at 100 MB reads what optimistic does.
    cell(r#""blocking_pessimistic", "x": 100000000"#, |_| 136.064, "outside the paper's ~+30 %");
    cell(r#""fig7", "series": "faulty_servers", "x": 0,"#, |_| 80.0, "outside the paper's 69-71 s");
    cell(r#""lri_replica", "x": 50,"#, |v| v + 1.0, "of one replication period earlier");
    cell(r#""fig10", "series": "client", "x": 60,"#, |_| 0.0, "dips across a failover");
    cell(r#""partitioned", "x": 109,"#, |_| 999.0, "delivered 999/1000 results");
    // One token swapped: (artifact, from, to, the gate's message).
    for (bench, from, to, message) in [
        ("scale", "\"completed\": true", "\"completed\": false", "did not complete"),
        ("chaos", "\"survived\": true", "\"survived\": false", "violated a safety invariant"),
        ("chaos", "\"results\": 24", "\"results\": 23", "delivered 23/24 results"),
        // The parent's v5 file (host-clock columns) is refused at the door.
        ("scale", "\"schema_version\": 6", "\"schema_version\": 5", "regenerate"),
        ("chaos", "\"bench\": \"chaos\"", "\"bench\": \"ckpt\"", "carries the bench tag"),
        ("paper", "\"bench\": \"paper\"", "\"bench\": \"scale\"", "carries the bench tag"),
    ] {
        let doc = match bench {
            "scale" => &scale,
            "chaos" => &chaos,
            _ => &paper,
        };
        assert!(doc.contains(from), "{bench}: nothing to mutate for {message:?}");
        must_fail(bench, doc.replacen(from, to, 1), message);
    }
    // 63 plans with consistent totals: only the 64-plan-ladder gate can object.
    let short = chaos
        .replacen(chaos.lines().nth(5).unwrap(), "", 1)
        .replace("\"plans\": 64,", "\"plans\": 63,")
        .replace("\"survived\": 64,", "\"survived\": 63,");
    must_fail("chaos", short, "holds 63 plans");
}
