//! `fleet record-tape` builds exactly one fault plan from its flags:
//! `--loss P` is the i.i.d. plan, so combining it with another plan is
//! rejected instead of one of them being silently dropped.

use sleepy_net::{FaultPlan, Tape};
use std::path::Path;
use std::process::Output;

mod util;

fn record_tape(out: &Path, extra: &[&str]) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_fleet"))
        .args(["record-tape", "--algo", "alg1", "--family", "gnp8", "--n", "12", "--seed", "9"])
        .args(extra)
        .arg("--out")
        .arg(out)
        .output()
        .expect("fleet binary runs")
}

#[test]
fn loss_with_another_fault_plan_is_rejected() {
    let dir = util::tmp_dir("fleet-record-tape", "exclusive");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("tape.jsonl");
    for other in [
        ["--fault-burst", "0.1,0.2,0.0,1.0"],
        ["--fault-crash", "1:0:5"],
        ["--fault-partition", "0-1:0:5"],
    ] {
        let run = record_tape(&out, &["--loss", "0.2", other[0], other[1]]);
        assert!(!run.status.success(), "--loss with {} was accepted", other[0]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("mutually exclusive"), "{}: {stderr}", other[0]);
        assert!(!out.exists(), "{}: a tape was written", other[0]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn loss_flags_record_an_iid_plan() {
    let dir = util::tmp_dir("fleet-record-tape", "iid");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("tape.jsonl");
    let run = record_tape(&out, &["--loss", "0.2", "--loss-seed", "11"]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    let tape = Tape::from_jsonl(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert_eq!(tape.header.fault, FaultPlan::Iid { probability: 0.2, seed: 11 });
    let _ = std::fs::remove_dir_all(&dir);
}
