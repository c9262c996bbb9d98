//! Runs one command and reports its exit code, wall time and peak RSS,
//! for the repository benchmark.
//!
//! ```text
//! perfbench-spawn <report.json> <program> [args...]
//! ```
//!
//! The command inherits stdin, stdout and stderr. When it has ended, one
//! JSON object goes to `<report.json>`:
//! `{"code": .., "wall_s": .., "maxrss_kb": .., "spawner_hwm_kb": ..}`.
//! `code` is the exit code, or 128 + the signal that ended the command.
//!
//! Why a spawner: Linux starts a child's peak RSS (`ru_maxrss`) at the
//! high-water mark of the memory image it was spawned from, and a Python
//! interpreter alone holds ~20 MB. Spawned from this small process, the
//! command's `ru_maxrss` is its own down to this process's high-water
//! mark, which the report gives as `spawner_hwm_kb` so the benchmark can
//! check that the figure it reports is not the floor.

use std::process::{Command, ExitCode};
use std::time::Instant;

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s.
type Rusage = [i64; 18];
const RU_MAXRSS: usize = 4;
const EINTR: i32 = 4;

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// This process's own RSS high-water mark (`VmHWM`), in kB: the floor
/// the command's `ru_maxrss` starts from.
fn own_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [report, program, rest @ ..] = args.as_slice() else {
        eprintln!("usage: perfbench-spawn <report.json> <program> [args...]");
        return ExitCode::from(2);
    };
    let spawner_hwm_kb = own_hwm_kb();
    let t0 = Instant::now();
    let child = match Command::new(program).args(rest).spawn() {
        Ok(child) => child,
        Err(e) => {
            eprintln!("perfbench-spawn: cannot run {program}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut status = 0i32;
    let mut usage: Rusage = [0; 18];
    // reaps the child here, so `Child::wait` is never called
    loop {
        let pid = unsafe { wait4(child.id() as i32, &mut status, 0, &mut usage) };
        if pid > 0 {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.raw_os_error() != Some(EINTR) {
            eprintln!("perfbench-spawn: wait4 failed: {err}");
            return ExitCode::from(2);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let signal = status & 0x7f;
    let code = if signal == 0 { (status >> 8) & 0xff } else { 128 + signal };
    let json = format!(
        "{{\"code\": {code}, \"wall_s\": {wall_s}, \"maxrss_kb\": {}, \"spawner_hwm_kb\": {spawner_hwm_kb}}}\n",
        usage[RU_MAXRSS]
    );
    match std::fs::write(report, json) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-spawn: cannot write {report}: {e}");
            ExitCode::from(2)
        }
    }
}
