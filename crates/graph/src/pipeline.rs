//! Two-core pipelining for the graph layer's write and read paths.
//!
//! The ingest pairs producers with consumers that hand nothing back but
//! emptied buffers: the parser with the run sort and spill, the merge with
//! the row pointers and section writes. A [`Relay`] runs the consumer on a
//! scoped helper thread when the process may use a second CPU, and inline
//! on the caller's thread when it may not, so each stage has one body
//! either way and a single CPU pays for no hand-offs. [`beside`] does the
//! same for two independent computations: a mapped image load's digest and
//! its CSR checks. A buffered image load hashes each block inline, which
//! costs less than handing it over.

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};

/// Items in circulation through a relay with a helper thread: one being
/// consumed while the caller produces the other.
const DEPTH: usize = 2;

/// Whether this process may run on more than one CPU (read once).
fn two_cpus() -> bool {
    static TWO: OnceLock<bool> = OnceLock::new();
    *TWO.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// Runs `helper` beside `main`, on a second CPU when there is one and
/// before `main` otherwise, and returns both results.
pub(crate) fn beside<A: Send, B>(
    helper: impl FnOnce() -> A + Send,
    main: impl FnOnce() -> B,
) -> (A, B) {
    if !two_cpus() {
        let a = helper();
        return (a, main());
    }
    std::thread::scope(|s| {
        let helper = s.spawn(helper);
        let b = main();
        let a = helper
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (a, b)
    })
}

/// Hands items to a stage that runs on a helper thread of `scope`, or
/// inline when the process has one CPU, and recycles the items it has
/// finished with.
pub(crate) struct Relay<'scope, T, F> {
    /// The stage, when it runs inline.
    inline: Option<F>,
    helper: Option<Helper<'scope, T>>,
}

struct Helper<'scope, T> {
    shared: Arc<Shared<T>>,
    /// Items handed over and not yet back.
    out: usize,
    /// Taken by [`Relay::finish`] to join the thread.
    thread: Option<ScopedJoinHandle<'scope, ()>>,
}

impl<T> Drop for Helper<'_, T> {
    /// Lets the helper stop when the relay is dropped without
    /// [`Relay::finish`], as on an early error return; the scope then
    /// joins it.
    fn drop(&mut self) {
        self.shared.lock().closed = true;
        self.shared.changed.notify_all();
    }
}

/// The hand-off between the caller and the helper: one lock and one
/// condition variable, so a relay allocates nothing but this and its
/// thread. (A channel allocates cache-aligned blocks, which split the
/// allocator's free space and keep the heap from reusing it.)
struct Shared<T> {
    state: Mutex<State<T>>,
    changed: Condvar,
}

struct State<T> {
    /// Items for the stage, oldest first.
    todo: VecDeque<T>,
    /// Each item back after the stage, or the stage's error.
    done: VecDeque<io::Result<T>>,
    /// No more items will come.
    closed: bool,
    /// The helper has stopped: after the last item, after an error, or in
    /// a panic that the join re-raises.
    stopped: bool,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Nothing panics while holding the lock, so a poisoned state is
        // still consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        self.changed
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper's loop: runs `stage` on each item until the items end or
    /// the stage fails.
    fn serve(&self, mut stage: impl FnMut(&mut T) -> io::Result<()>) {
        /// Marks the helper stopped however it leaves, a panic included.
        struct Stop<'a, T>(&'a Shared<T>);
        impl<T> Drop for Stop<'_, T> {
            fn drop(&mut self) {
                self.0.lock().stopped = true;
                self.0.changed.notify_all();
            }
        }
        let _stop = Stop(self);
        loop {
            let mut state = self.lock();
            let mut item = loop {
                match state.todo.pop_front() {
                    Some(item) => break item,
                    None if state.closed => return,
                    None => state = self.wait(state),
                }
            };
            drop(state);
            let result = stage(&mut item).map(|()| item);
            let failed = result.is_err();
            self.lock().done.push_back(result);
            self.changed.notify_all();
            if failed {
                return;
            }
        }
    }
}

impl<'scope, T, F> Relay<'scope, T, F>
where
    T: Send + 'scope,
    F: FnMut(&mut T) -> io::Result<()> + Send + 'scope,
{
    pub(crate) fn new<'env>(scope: &'scope Scope<'scope, 'env>, stage: F) -> Self {
        if !two_cpus() {
            return Relay {
                inline: Some(stage),
                helper: None,
            };
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                todo: VecDeque::with_capacity(DEPTH),
                done: VecDeque::with_capacity(DEPTH),
                closed: false,
                stopped: false,
            }),
            changed: Condvar::new(),
        });
        let serving = Arc::clone(&shared);
        let thread = scope.spawn(move || serving.serve(stage));
        Relay {
            inline: None,
            helper: Some(Helper {
                shared,
                out: 0,
                thread: Some(thread),
            }),
        }
    }

    /// How many items circulate: 1 inline, where [`Relay::pass`] hands
    /// the same item back, or [`DEPTH`] with a helper thread.
    pub(crate) fn items(&self) -> usize {
        if self.helper.is_some() {
            DEPTH
        } else {
            1
        }
    }

    /// Hands `item` to the stage. Returns an item the stage has finished
    /// with, for reuse, or `None` while fewer than [`Relay::items`] are in
    /// circulation; waits for the helper only when all of them are with
    /// it.
    ///
    /// # Errors
    ///
    /// The first error of the stage on this or an earlier item.
    pub(crate) fn pass(&mut self, mut item: T) -> io::Result<Option<T>> {
        let Some(helper) = &mut self.helper else {
            let stage = self
                .inline
                .as_mut()
                .expect("a relay without a helper keeps its stage");
            stage(&mut item)?;
            return Ok(Some(item));
        };
        let shared = &*helper.shared;
        let mut state = shared.lock();
        if !state.stopped {
            state.todo.push_back(item);
            shared.changed.notify_all();
            helper.out += 1;
            if helper.out < DEPTH {
                return Ok(None);
            }
        }
        while state.done.is_empty() && !state.stopped {
            state = shared.wait(state);
        }
        match state.done.pop_front() {
            Some(result) => {
                helper.out -= 1;
                result.map(Some)
            }
            None => Err(io::Error::other("pipeline stage stopped")),
        }
    }

    /// Waits for the stage to finish every item handed to it, and returns
    /// the items it still held.
    ///
    /// # Errors
    ///
    /// The first error of the stage.
    pub(crate) fn finish(self) -> io::Result<Vec<T>> {
        let Some(mut helper) = self.helper else {
            return Ok(Vec::new());
        };
        let shared = &*helper.shared;
        let mut state = shared.lock();
        state.closed = true;
        shared.changed.notify_all();
        while !state.stopped {
            state = shared.wait(state);
        }
        let mut items = Vec::with_capacity(state.done.len());
        let mut first = None;
        for result in state.done.drain(..) {
            match result {
                Ok(item) => items.push(item),
                Err(e) => first = first.or(Some(e)),
            }
        }
        drop(state);
        if let Some(Err(panic)) = helper.thread.take().map(ScopedJoinHandle::join) {
            std::panic::resume_unwind(panic);
        }
        match first {
            Some(e) => Err(e),
            None => Ok(items),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_consumes_every_item_in_order_and_recycles() {
        let mut seen = Vec::new();
        let recycled = std::thread::scope(|s| {
            let mut relay = Relay::new(s, |item: &mut Vec<u32>| {
                seen.append(item);
                Ok(())
            });
            let mut recycled = 0;
            for i in 0..10 {
                if let Some(back) = relay.pass(vec![2 * i, 2 * i + 1]).unwrap() {
                    assert!(back.is_empty(), "the stage emptied it");
                    recycled += 1;
                }
            }
            let waits_from = relay.items();
            let held = relay.finish().unwrap();
            assert_eq!(recycled + held.len(), 10, "every item comes back");
            recycled + waits_from
        });
        assert_eq!(
            recycled, 11,
            "one item back for each pass from the items()-th on"
        );
        assert_eq!(seen, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn relay_reports_the_first_stage_error_and_stops() {
        let mut calls = 0;
        let err = std::thread::scope(|s| {
            let mut relay = Relay::new(s, |item: &mut u32| {
                calls += 1;
                if *item >= 3 {
                    return Err(io::Error::other(format!("item {item}")));
                }
                Ok(())
            });
            let mut first = None;
            for i in 0..100 {
                if let Err(e) = relay.pass(i) {
                    first = Some(e);
                    break;
                }
            }
            match first {
                Some(e) => {
                    // The relay's own error ends the stream; finish reports
                    // nothing newer than it.
                    let _ = relay.finish();
                    e
                }
                None => relay.finish().unwrap_err(),
            }
        });
        assert_eq!(err.to_string(), "item 3");
        assert_eq!(calls, 4, "the stage stops at its first error");
    }

    #[test]
    fn a_dropped_relay_lets_its_helper_stop() {
        let mut seen = 0;
        std::thread::scope(|s| {
            let mut relay = Relay::new(s, |item: &mut u32| {
                seen += *item;
                Ok(())
            });
            relay.pass(1).unwrap();
            // Dropped without finish, as an early error return does; the
            // scope's join must not wait forever.
        });
        assert_eq!(seen, 1, "an item handed over is still consumed");
    }

    #[test]
    fn beside_returns_both_results() {
        let data: Vec<u64> = (1..=1000).collect();
        let (a, b) = beside(|| data.iter().sum::<u64>(), || data.len());
        assert_eq!((a, b), (500_500, 1000));
    }
}
