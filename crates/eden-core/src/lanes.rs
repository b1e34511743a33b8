//! Persistent worker threads for the enclave's parallel lanes.
//!
//! Each lane worker is spawned once (lazily, on the first parallel batch —
//! fuzzers construct millions of enclaves that never go parallel) and is
//! handed per-batch work over a pair of `std::sync::mpsc` channels, so
//! steady-state fan-out is one send, one receive and an unpark per lane.
//! Both ends poll with `try_recv` — spin, then yield, then (the worker)
//! park: lanes are latency-bound, and a blocking `recv` measured slower.
//!
//! [`LanePool::run`] is a *barrier*: lane 0 runs inline on the caller's
//! thread, lanes 1.. run on workers, and the call returns only after
//! every dispatched worker has reported completion (or re-raises a worker
//! panic). That barrier is the soundness argument for the lifetime
//! erasure below — the borrowed task data in `Job` cannot outlive `run`
//! because `run` does not return while any worker still holds a `Job`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::thread::JoinHandle;

/// A lifetime-erased unit of lane work. `slot` points at a `TaskSlot<T>`
/// on the coordinator's stack; `call` is the monomorphized trampoline
/// that knows `T` again.
struct Job {
    slot: *mut (),
    call: unsafe fn(*mut (), usize),
    lane: usize,
}

// SAFETY: a Job is produced from `&mut T` where `T: Send`, consumed by
// exactly one worker, and the coordinator blocks until the worker is done
// — so the pointee is valid for the Job's whole life and never aliased.
unsafe impl Send for Job {}

struct TaskSlot<T> {
    f: fn(usize, &mut T),
    task: *mut T,
}

unsafe fn trampoline<T>(slot: *mut (), lane: usize) {
    // SAFETY: `slot` was created from `&mut TaskSlot<T>` by `run`, which
    // keeps the slot vec alive (and unmoved) until the barrier completes.
    let slot = unsafe { &mut *slot.cast::<TaskSlot<T>>() };
    // SAFETY: `task` came from a distinct `&mut T`; only this worker
    // dereferences it while the job is outstanding.
    (slot.f)(lane, unsafe { &mut *slot.task });
}

/// `Ok` or the payload of a worker panic, re-raised on the coordinator.
type Done = Result<(), Box<dyn Any + Send>>;

/// A worker exits when its `work` sender is dropped.
struct Worker {
    work: SyncSender<Job>,
    done: Receiver<Done>,
    join: JoinHandle<()>,
}

impl Worker {
    fn spawn(index: usize) -> Worker {
        // capacity 1: `run` has at most one job outstanding per worker
        let (work, work_rx) = sync_channel::<Job>(1);
        let (done_tx, done) = sync_channel::<Done>(1);
        let join = std::thread::Builder::new()
            .name(format!("eden-lane-{}", index + 1))
            .spawn(move || {
                let mut idle = 0u32;
                loop {
                    match work_rx.try_recv() {
                        Ok(job) => {
                            idle = 0;
                            let result = catch_unwind(AssertUnwindSafe(|| {
                                // SAFETY: see `Job` — pointee valid until
                                // the coordinator's barrier releases.
                                unsafe { (job.call)(job.slot, job.lane) }
                            }));
                            // fails only once the pool is being dropped
                            let _ = done_tx.send(result);
                        }
                        Err(TryRecvError::Disconnected) => break,
                        Err(TryRecvError::Empty) => {
                            // Spin only briefly, then yield before parking:
                            // on a single-core host an idle worker spinning
                            // through its timeslice starves the coordinator
                            // (and sibling lanes) it is waiting on.
                            idle += 1;
                            if idle < 64 {
                                std::hint::spin_loop();
                            } else if idle < 128 {
                                std::thread::yield_now();
                            } else {
                                std::thread::park();
                            }
                        }
                    }
                }
            })
            .expect("spawn lane worker");
        Worker { work, done, join }
    }

    fn send(&self, job: Job) {
        self.work
            .send(job)
            .expect("a lane worker lives as long as its pool");
        self.join.thread().unpark();
    }

    fn wait_done(&self) -> Done {
        // Short spin for the multicore fast path, then yield: the worker
        // may need this very core to produce the result we are polling
        // for, and yield_now is near-free when nothing else is runnable.
        let mut idle = 0u32;
        loop {
            match self.done.try_recv() {
                Ok(done) => return done,
                Err(TryRecvError::Disconnected) => {
                    unreachable!("a lane worker lives as long as its pool")
                }
                Err(TryRecvError::Empty) => {}
            }
            idle += 1;
            if idle < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// A pool of persistent lane workers with a fork-join `run` entry point.
pub struct LanePool {
    workers: Vec<Worker>,
}

impl Default for LanePool {
    fn default() -> LanePool {
        LanePool::new()
    }
}

impl LanePool {
    /// An empty pool; workers spawn lazily on first use.
    pub fn new() -> LanePool {
        LanePool {
            workers: Vec::new(),
        }
    }

    /// Number of workers currently spawned (test/telemetry hook).
    pub fn spawned(&self) -> usize {
        self.workers.len()
    }

    fn ensure_workers(&mut self, n: usize) {
        while self.workers.len() < n {
            let index = self.workers.len();
            self.workers.push(Worker::spawn(index));
        }
    }

    /// Run `f(lane, &mut tasks[lane])` for every task: lane 0 inline on
    /// this thread, the rest on pool workers. Blocks until all lanes
    /// finish; a worker panic is re-raised here after the barrier (so
    /// borrows never escape).
    pub fn run<T: Send>(&mut self, tasks: &mut [T], f: fn(usize, &mut T)) {
        let lanes = tasks.len();
        if lanes == 0 {
            return;
        }
        self.ensure_workers(lanes - 1);
        let (lane0, rest) = tasks.split_first_mut().expect("lanes >= 1");
        // slots must not move while workers hold pointers into them:
        // sized exactly, never pushed afterwards
        let mut slots: Vec<TaskSlot<T>> = rest
            .iter_mut()
            .map(|task| TaskSlot {
                f,
                task: task as *mut T,
            })
            .collect();
        for (i, (worker, slot)) in self.workers.iter().zip(slots.iter_mut()).enumerate() {
            worker.send(Job {
                slot: (slot as *mut TaskSlot<T>).cast(),
                call: trampoline::<T>,
                lane: i + 1,
            });
        }
        let inline = catch_unwind(AssertUnwindSafe(|| f(0, lane0)));
        // barrier: wait for EVERY dispatched worker even if one (or the
        // inline lane) panicked — otherwise task borrows would escape
        let mut panic: Option<Box<dyn Any + Send>> = None;
        for worker in self.workers.iter().take(lanes - 1) {
            if let Err(payload) = worker.wait_done() {
                panic = Some(payload);
            }
        }
        if let Err(payload) = inline {
            panic = Some(payload);
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for LanePool {
    fn drop(&mut self) {
        for Worker { work, join, .. } in self.workers.drain(..) {
            drop(work);
            join.thread().unpark();
            let _ = join.join();
        }
    }
}

impl std::fmt::Debug for LanePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LanePool")
            .field("spawned", &self.workers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_lane_once() {
        let mut pool = LanePool::new();
        assert_eq!(pool.spawned(), 0, "lazy spawn");
        let mut tasks: Vec<(usize, u64)> = (0..4).map(|i| (i, 0u64)).collect();
        pool.run(&mut tasks, |lane, t| {
            assert_eq!(lane, t.0, "lane index matches task slot");
            t.1 = 100 + lane as u64;
        });
        assert_eq!(pool.spawned(), 3, "coordinator runs lane 0 inline");
        let got: Vec<u64> = tasks.iter().map(|t| t.1).collect();
        assert_eq!(got, vec![100, 101, 102, 103]);
    }

    #[test]
    fn reuses_workers_across_batches() {
        let mut pool = LanePool::new();
        let mut acc = vec![0u64; 3];
        for round in 0..100u64 {
            let mut tasks: Vec<(u64, &mut u64)> =
                acc.iter_mut().map(|slot| (round, slot)).collect();
            pool.run(&mut tasks, |_, t| *t.1 += t.0);
        }
        assert_eq!(pool.spawned(), 2);
        let want: u64 = (0..100).sum();
        assert_eq!(acc, vec![want; 3]);
    }

    #[test]
    fn shrinking_and_growing_lane_counts() {
        let mut pool = LanePool::new();
        for lanes in [4usize, 1, 2, 8, 3] {
            let mut tasks = vec![0u32; lanes];
            pool.run(&mut tasks, |lane, t| *t = lane as u32 + 1);
            let want: Vec<u32> = (1..=lanes as u32).collect();
            assert_eq!(tasks, want);
        }
        assert_eq!(pool.spawned(), 7);
    }

    #[test]
    fn worker_panic_propagates_after_barrier() {
        let mut pool = LanePool::new();
        let mut tasks = vec![0u8; 4];
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&mut tasks, |lane, _| {
                if lane == 2 {
                    panic!("lane 2 exploded");
                }
            });
        }));
        assert!(result.is_err(), "panic reaches the coordinator");
        // the pool is still usable afterwards
        pool.run(&mut tasks, |lane, t| *t = lane as u8);
        assert_eq!(tasks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_task_list_is_a_noop() {
        let mut pool = LanePool::new();
        let mut tasks: Vec<u8> = Vec::new();
        pool.run(&mut tasks, |_, _| unreachable!());
        assert_eq!(pool.spawned(), 0);
    }
}
