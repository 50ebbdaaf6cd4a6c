//! Keep every CPU out of its idle state while the benchmark measures.
//!
//! On a virtual machine, waking a halted vCPU goes through the host
//! scheduler and can take milliseconds; a serving stack that hands each
//! request between several threads pays that wake-up at every hand-off,
//! and the cost swings with the host's load. Measured with and without
//! this on a 2-vCPU VM, `wire_fast`'s light p50 moved from 2.2–2.9 ms to
//! 0.5–0.9 ms. So while measuring, the benchmark runs one spinner
//! process per CPU under `SCHED_IDLE` (falling back to nice 19): it runs
//! only when nothing else wants the CPU, and keeps the vCPU awake so a
//! woken server thread starts at once. This plays the role `idle=poll`
//! plays on bare metal. Spinners exit when their stdin closes, so they
//! never outlive the benchmark, and are killed and reaped on drop.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Running spinner processes; dropping stops and reaps them.
pub struct KeepAwake {
    children: Vec<Child>,
}

impl KeepAwake {
    /// Start one lowest-priority spinner per CPU. Starts none (and says
    /// so) when neither `chrt` nor `nice` can launch one.
    pub fn start(cpus: usize) -> Self {
        let exe = std::env::current_exe().expect("own executable path");
        let launchers: [&[&str]; 2] = [&["chrt", "--idle", "0"], &["nice", "-n", "19"]];
        let children = (0..cpus)
            .filter_map(|_| {
                launchers.iter().find_map(|l| {
                    let mut child = Command::new(l[0])
                        .args(&l[1..])
                        .arg(&exe)
                        .arg("--spin")
                        .stdin(Stdio::piped())
                        .stdout(Stdio::null())
                        .stderr(Stdio::null())
                        .spawn()
                        .ok()?;
                    // A launcher that cannot set the policy exits at once.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    match child.try_wait() {
                        Ok(None) => Some(child),
                        _ => {
                            let _ = child.wait();
                            None
                        }
                    }
                })
            })
            .collect();
        Self { children }
    }

    pub fn spinners(&self) -> usize {
        self.children.len()
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The spinner's own body: burn idle cycles until stdin closes.
pub fn spin_until_stdin_closes() {
    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    std::thread::spawn(move || {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        flag.store(true, Ordering::Relaxed);
    });
    while !done.load(Ordering::Relaxed) {
        std::hint::spin_loop();
    }
}
