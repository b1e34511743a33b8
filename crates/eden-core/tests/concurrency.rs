//! The paper's concurrency model (§3.4.4) under real threads.
//!
//! The compiler derives, from the state annotations, how many invocations
//! of a function may overlap:
//!
//! * **parallel** (read-only message & global state) — any number at once;
//! * **per-message** — one packet per message at a time;
//! * **serialized** (global writes) — one invocation at a time.
//!
//! The single-threaded simulator only records the level; this test
//! demonstrates the discipline is *sufficient* on real threads: programs
//! run under their declared level produce the same results as sequential
//! execution, with `std::sync::Mutex` locks standing in for the enclave's
//! authoritative-state synchronization.

use std::sync::{Arc, Mutex};

use eden_apps::functions;
use eden_lang::{compile, Concurrency};
use eden_vm::{Host, Interpreter, Limits, StateUse, VecHost, VmError};

/// A host whose global scalars live behind a shared lock (the enclave's
/// authoritative copy), while packet/message state is invocation-local.
struct SharedGlobalHost {
    local: VecHost,
    global: Arc<Mutex<Vec<i64>>>,
}

impl SharedGlobalHost {
    fn globals(&self) -> std::sync::MutexGuard<'_, Vec<i64>> {
        self.global
            .lock()
            .expect("no invocation panics while holding the lock")
    }
}

impl Host for SharedGlobalHost {
    /// The shared copy answers for the global slots, the local host for
    /// everything else.
    fn admit(&self, needs: &StateUse) -> Result<(), VmError> {
        if let Some(slot) = needs.global.beyond(self.globals().len()) {
            return Err(VmError::BadStateSlot {
                scope: eden_vm::StateScope::Global,
                slot,
            });
        }
        self.local.admit(&StateUse {
            global: Default::default(),
            ..*needs
        })
    }
    fn load_pkt(&mut self, s: u8) -> i64 {
        self.local.load_pkt(s)
    }
    fn store_pkt(&mut self, s: u8, v: i64) {
        self.local.store_pkt(s, v)
    }
    fn load_msg(&mut self, s: u8) -> i64 {
        self.local.load_msg(s)
    }
    fn store_msg(&mut self, s: u8, v: i64) {
        self.local.store_msg(s, v)
    }
    fn load_glob(&mut self, slot: u8) -> i64 {
        self.globals()[slot as usize]
    }
    fn store_glob(&mut self, slot: u8, v: i64) {
        self.globals()[slot as usize] = v;
    }
    fn arr_load(&mut self, a: u8, i: i64) -> Result<i64, VmError> {
        self.local.arr_load(a, i)
    }
    fn arr_store(&mut self, a: u8, i: i64, v: i64) -> Result<(), VmError> {
        self.local.arr_store(a, i, v)
    }
    fn arr_len(&mut self, a: u8) -> i64 {
        self.local.arr_len(a)
    }
    fn rand64(&mut self) -> i64 {
        self.local.rand64()
    }
    fn now_ns(&mut self) -> i64 {
        self.local.now_ns()
    }
    fn effect(&mut self, e: eden_vm::Effect) -> Result<(), VmError> {
        self.local.effect(e)
    }
}

#[test]
fn parallel_functions_run_concurrently_without_coordination() {
    // SFF is `Parallel`: read-only global array, writes only packet state.
    let bundle = functions::sff();
    let compiled = compile("sff", &bundle.source, &bundle.schema()).unwrap();
    assert_eq!(compiled.concurrency, Concurrency::Parallel);
    let program = Arc::new(compiled.program);

    let threads = 8;
    let per_thread = 5_000u64;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let program = Arc::clone(&program);
            scope.spawn(move || {
                let mut interp = Interpreter::new(Limits::default());
                let mut host = VecHost::with_slots(2, 0, 0);
                host.arrays
                    .push(vec![10 * 1024, 7, 1024 * 1024, 5, i64::MAX, 1]);
                for i in 0..per_thread {
                    host.packet[0] = ((t * 131 + i as usize * 977) % 2_000_000) as i64;
                    interp.run(&program, &mut host).expect("no traps");
                    let expect = match host.packet[0] {
                        s if s <= 10 * 1024 => 7,
                        s if s <= 1024 * 1024 => 5,
                        _ => 1,
                    };
                    assert_eq!(host.packet[1], expect);
                }
            });
        }
    });
}

#[test]
fn serialized_function_is_correct_under_the_global_lock() {
    // flow-counter is `Serialized` (writes global state); run it from many
    // threads with the authoritative global behind a lock — the paper's
    // "only one parallel invocation" discipline, here made safe by mutual
    // exclusion around whole invocations.
    let bundle = functions::flow_counter();
    let compiled = compile("ctr", &bundle.source, &bundle.schema()).unwrap();
    assert_eq!(compiled.concurrency, Concurrency::Serialized);
    let program = Arc::new(compiled.program);
    let global = Arc::new(Mutex::new(vec![0i64; 2]));
    let invocation_lock = Arc::new(Mutex::new(()));

    let threads = 8;
    let per_thread = 2_000u64;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let program = Arc::clone(&program);
            let global = Arc::clone(&global);
            let invocation_lock = Arc::clone(&invocation_lock);
            scope.spawn(move || {
                let mut interp = Interpreter::new(Limits::default());
                for _ in 0..per_thread {
                    let _serialized = invocation_lock.lock().expect("peers do not panic");
                    let mut host = SharedGlobalHost {
                        local: VecHost::with_slots(1, 2, 0),
                        global: Arc::clone(&global),
                    };
                    host.local.packet[0] = 100;
                    interp.run(&program, &mut host).expect("no traps");
                }
            });
        }
    });

    let g = global.lock().expect("every thread joined cleanly");
    assert_eq!(g[0], threads as i64 * per_thread as i64 * 100, "TotalBytes");
    assert_eq!(g[1], threads as i64 * per_thread as i64, "TotalPackets");
}
