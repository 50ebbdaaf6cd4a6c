//! Scoped-thread fan-out built on `std::thread::scope`:
//! [`parallel_chunks`] splits an index range across workers that each
//! produce a result (the shape of the offline evaluator, the energy
//! analysis, tier calibration and deployment sampling, which all call it
//! from here). It runs
//! inline when a single thread suffices, keeping single-threaded
//! determinism trivially identical to the parallel path.

/// Split `0..n` into up to `threads` contiguous chunks and run `worker` on
/// each in parallel, collecting results in chunk order.
///
/// With `threads <= 1` (or `n <= 1`) the worker runs inline, which keeps
/// single-threaded determinism trivially identical to the parallel path
/// (chunks are deterministic functions of `n` and `threads`).
///
/// # Errors
///
/// Propagates the first worker error (by chunk order).
///
/// # Panics
///
/// Panics if a worker thread panics; the re-raised panic text includes the
/// worker's own panic message so parallel failures stay diagnosable.
pub fn parallel_chunks<T, E, F>(n: usize, threads: usize, worker: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(std::ops::Range<usize>) -> Result<T, E> + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        return Ok(vec![worker(0..n)?]);
    }
    let chunk = n.div_ceil(threads);
    let ranges: Vec<std::ops::Range<usize>> = (0..threads)
        .map(|t| (t * chunk).min(n)..((t + 1) * chunk).min(n))
        .filter(|r| !r.is_empty())
        .collect();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|r| {
                let r = r.clone();
                let worker = &worker;
                s.spawn(move || worker(r))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result,
                Err(payload) => panic!(
                    "parallel_chunks worker panicked: {}",
                    panic_payload_message(payload.as_ref())
                ),
            })
            .collect::<Vec<Result<T, E>>>()
    });
    results.into_iter().collect()
}

/// Best-effort extraction of the human-readable message from a panic
/// payload (`&str` and `String` cover everything `panic!`/`assert!`
/// produce; anything else reports its opacity rather than nothing).
fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_range_exactly_once() {
        let results: Vec<Vec<usize>> =
            parallel_chunks(10, 3, |r| Ok::<_, ()>(r.collect::<Vec<_>>())).expect("ok");
        let mut all: Vec<usize> = results.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_is_one_chunk() {
        let results = parallel_chunks(5, 1, |r| Ok::<_, ()>((r.start, r.end))).expect("ok");
        assert_eq!(results, vec![(0, 5)]);
    }

    #[test]
    fn more_threads_than_items() {
        let results: Vec<Vec<usize>> =
            parallel_chunks(2, 8, |r| Ok::<_, ()>(r.collect())).expect("ok");
        let total: usize = results.iter().map(|v| v.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn empty_range_runs_once() {
        let results = parallel_chunks(0, 4, |r| Ok::<_, ()>(r.len())).expect("ok");
        assert_eq!(results, vec![0]);
    }

    #[test]
    fn errors_propagate() {
        let err = parallel_chunks(10, 2, |r| {
            if r.start == 0 {
                Err("first chunk failed")
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, "first chunk failed");
    }

    #[test]
    fn worker_panic_message_is_surfaced() {
        let result = std::panic::catch_unwind(|| {
            let _ = parallel_chunks(8, 2, |r| {
                if r.start == 0 {
                    panic!("chunk {}..{} exploded on sample 3", r.start, r.end);
                }
                Ok::<_, ()>(())
            });
        });
        let payload = result.expect_err("worker panic must propagate");
        let msg = panic_payload_message(payload.as_ref());
        assert!(
            msg.contains("parallel_chunks worker panicked")
                && msg.contains("exploded on sample 3"),
            "panic text should carry the worker payload, got: {msg}"
        );
    }

    #[test]
    fn payload_messages_cover_common_shapes() {
        assert_eq!(panic_payload_message(&"static"), "static");
        assert_eq!(panic_payload_message(&"owned".to_string()), "owned");
        assert_eq!(panic_payload_message(&42usize), "<non-string panic payload>");
    }
}
