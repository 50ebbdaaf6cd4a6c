//! Scoped-thread fan-out helpers built on `std::thread::scope`.
//!
//! Two shapes:
//!
//! * [`parallel_chunks`] — split an index range across workers that each
//!   produce a result (the offline evaluator / experiment-harness shape;
//!   re-exported as `truenorth::cross_thread::parallel_chunks`);
//! * [`parallel_slices`] — split a mutable slice into disjoint chunks and
//!   mutate them in place.
//!
//! Both run inline when a single thread suffices, keeping single-threaded
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

/// Split `items` into up to `threads` contiguous disjoint chunks and run
/// `f(offset, chunk)` on each in parallel, where `offset` is the index of
/// the chunk's first element in `items`.
///
/// With `threads <= 1` (or a short slice) `f` runs inline on the whole
/// slice. Chunk boundaries are a deterministic function of `items.len()`
/// and `threads`, and chunks are disjoint, so any `f` that only touches its
/// own chunk produces a result independent of the thread count.
///
/// # Panics
///
/// Panics if a worker thread panics; the re-raised panic text includes the
/// worker's own panic message.
pub fn parallel_slices<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        f(0, items);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        let mut rest = items;
        let mut offset = 0usize;
        let mut handles = Vec::with_capacity(threads);
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let f = &f;
            let off = offset;
            handles.push(s.spawn(move || f(off, head)));
            offset += take;
        }
        for h in handles {
            if let Err(payload) = h.join() {
                panic!(
                    "parallel_slices worker panicked: {}",
                    panic_payload_message(payload.as_ref())
                );
            }
        }
    });
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

    #[test]
    fn slices_touch_every_element_once() {
        let mut items = vec![0u64; 37];
        parallel_slices(&mut items, 4, |offset, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x += (offset + i) as u64 + 1;
            }
        });
        let expected: Vec<u64> = (1..=37).collect();
        assert_eq!(items, expected);
    }

    #[test]
    fn slices_inline_when_single_threaded() {
        let mut items = vec![1u32, 2, 3];
        parallel_slices(&mut items, 1, |offset, chunk| {
            assert_eq!(offset, 0);
            assert_eq!(chunk.len(), 3);
            chunk.iter_mut().for_each(|x| *x *= 2);
        });
        assert_eq!(items, vec![2, 4, 6]);
    }

    #[test]
    fn slices_result_independent_of_thread_count() {
        let run = |threads: usize| {
            let mut items: Vec<u64> = (0..100).collect();
            parallel_slices(&mut items, threads, |offset, chunk| {
                for (i, x) in chunk.iter_mut().enumerate() {
                    *x = x.wrapping_mul(31).wrapping_add((offset + i) as u64);
                }
            });
            items
        };
        assert_eq!(run(1), run(3));
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn slices_empty_is_a_noop() {
        let mut items: Vec<u8> = Vec::new();
        parallel_slices(&mut items, 4, |_, chunk| {
            assert!(chunk.is_empty());
        });
    }

    #[test]
    fn slices_panic_message_is_surfaced() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut items = vec![0u8; 8];
            parallel_slices(&mut items, 2, |offset, _| {
                if offset == 0 {
                    panic!("slice worker died at offset {offset}");
                }
            });
        }));
        let payload = result.expect_err("worker panic must propagate");
        let msg = panic_payload_message(payload.as_ref());
        assert!(
            msg.contains("parallel_slices worker panicked") && msg.contains("offset 0"),
            "got: {msg}"
        );
    }
}
