//! The `explore` CLI refuses a processor count the repro format refuses,
//! with the usage text and exit status 2, before it builds a scenario.

use std::process::Command;

use explore::repro::MAX_PROCS;

#[test]
fn procs_outside_the_repro_range_exit_2() {
    let too_many = (MAX_PROCS + 1).to_string();
    for procs in ["0", too_many.as_str()] {
        let out = Command::new(env!("CARGO_BIN_EXE_explore"))
            .args([
                "--exhaustive",
                "--procs",
                procs,
                "--scenario",
                "unsafe-merge",
            ])
            .args(["--depth", "1", "--max-schedules", "1"])
            .output()
            .expect("spawn explore");
        assert_eq!(out.status.code(), Some(2), "--procs {procs}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: explore"), "--procs {procs}: {err}");
    }
}
