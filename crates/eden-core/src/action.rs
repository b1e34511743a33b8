//! Installed action functions: interpreted bytecode or native closures.
//!
//! The evaluation compares "Eden" (bytecode through the interpreter) with
//! "native" (the same logic hard-coded in the enclave, "similar to a
//! typical implementation through a customised layer in the OS", §5.1).
//! Both forms run against the same per-invocation state view,
//! so state management and the concurrency model are identical — only the
//! computation engine differs, which is exactly what Figures 9, 10 and 12
//! isolate.

use eden_lang::{Access, CompiledFunction, Concurrency, Schema};
use eden_vm::{Effect, Host, Outcome, StateScope, VmError};

use crate::enclave::InvocationHost;
use crate::ops::ShippedFunction;

/// Identifies an installed function within an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncId(pub usize);

/// Typed accessors native functions use to touch exactly the same state the
/// interpreter would — the same per-invocation view, so HeaderMaps and
/// scoping apply equally. An interpreted program has its slots, its stores
/// and its concurrency level checked once, when it is installed; compiled
/// Rust cannot be analysed, so this façade is where the same rules are
/// enforced for it, per access: an unknown slot, a store to a read-only
/// packet field and a store the declared level forbids (§3.4.4: `Parallel`
/// writes no message or global state, `PerMessage` no global state) each
/// return the trap.
pub struct NativeEnv<'a> {
    host: &'a mut InvocationHost<'a>,
    concurrency: Concurrency,
}

impl<'a> NativeEnv<'a> {
    pub(crate) fn new(host: &'a mut InvocationHost<'a>, concurrency: Concurrency) -> NativeEnv<'a> {
        NativeEnv { host, concurrency }
    }

    /// What the closure left on the view: the queue verdict and the count
    /// of header fields it wrote.
    pub(crate) fn outcome(&self) -> (Option<(i64, i64)>, u64) {
        (self.host.queue, self.host.header_modifies)
    }

    fn known(have: usize, scope: StateScope, slot: u8) -> Result<(), VmError> {
        if (slot as usize) < have {
            Ok(())
        } else {
            Err(VmError::BadStateSlot { scope, slot })
        }
    }

    fn known_array(&self, array: u8, index: i64) -> Result<(), VmError> {
        if (array as usize) < self.host.state.arrays().len() {
            Ok(())
        } else {
            Err(VmError::BadArrayAccess { array, index })
        }
    }

    /// Only a `Serialized` function may write global scalars and arrays.
    fn may_write_globals(&self, slot: u8) -> Result<(), VmError> {
        if self.concurrency == Concurrency::Serialized {
            Ok(())
        } else {
            Err(VmError::ReadOnlyViolation {
                scope: StateScope::Global,
                slot,
            })
        }
    }

    /// Read packet field `slot`.
    pub fn pkt(&mut self, slot: u8) -> Result<i64, VmError> {
        Self::known(self.host.bindings.len(), StateScope::Packet, slot)?;
        Ok(self.host.load_pkt(slot))
    }

    /// Write packet field `slot`.
    pub fn set_pkt(&mut self, slot: u8, v: i64) -> Result<(), VmError> {
        Self::known(self.host.bindings.len(), StateScope::Packet, slot)?;
        if self.host.bindings[slot as usize].1 == Access::ReadOnly {
            return Err(VmError::ReadOnlyViolation {
                scope: StateScope::Packet,
                slot,
            });
        }
        self.host.store_pkt(slot, v);
        Ok(())
    }

    /// Read message state field `slot`.
    pub fn msg(&mut self, slot: u8) -> Result<i64, VmError> {
        Self::known(self.host.msg.len(), StateScope::Message, slot)?;
        Ok(self.host.load_msg(slot))
    }

    /// Write message state field `slot`.
    pub fn set_msg(&mut self, slot: u8, v: i64) -> Result<(), VmError> {
        if self.concurrency == Concurrency::Parallel {
            // a read-only function writing message state would invalidate
            // its declared concurrency level — trap instead of racing
            return Err(VmError::ReadOnlyViolation {
                scope: StateScope::Message,
                slot,
            });
        }
        Self::known(self.host.msg.len(), StateScope::Message, slot)?;
        self.host.store_msg(slot, v);
        Ok(())
    }

    /// Read global state field `slot`.
    pub fn global(&mut self, slot: u8) -> Result<i64, VmError> {
        Self::known(self.host.state.global().len(), StateScope::Global, slot)?;
        Ok(self.host.load_glob(slot))
    }

    /// Write global state field `slot`.
    pub fn set_global(&mut self, slot: u8, v: i64) -> Result<(), VmError> {
        self.may_write_globals(slot)?;
        Self::known(self.host.state.global().len(), StateScope::Global, slot)?;
        self.host.store_glob(slot, v);
        Ok(())
    }

    /// Read global array `array` at flat slot `index`.
    pub fn arr(&mut self, array: u8, index: i64) -> Result<i64, VmError> {
        self.known_array(array, index)?;
        self.host.arr_load(array, index)
    }

    /// Write global array `array` at flat slot `index`.
    pub fn set_arr(&mut self, array: u8, index: i64, v: i64) -> Result<(), VmError> {
        self.may_write_globals(array)?;
        self.known_array(array, index)?;
        self.host.arr_store(array, index, v)
    }

    /// Raw slot count of global array `array` (divide by the stride for
    /// the element count).
    pub fn arr_len(&mut self, array: u8) -> Result<i64, VmError> {
        self.known_array(array, -1)?;
        Ok(self.host.arr_len(array))
    }

    /// Uniform non-negative random value.
    pub fn rand(&mut self) -> i64 {
        self.host.rand64()
    }

    /// Uniform value in `[0, n)`.
    pub fn rand_range(&mut self, n: i64) -> Result<i64, VmError> {
        if n <= 0 {
            return Err(VmError::BadRandRange(n));
        }
        Ok(self.host.rand64() % n)
    }

    /// High-frequency clock, nanoseconds.
    pub fn now_ns(&mut self) -> i64 {
        self.host.now_ns()
    }

    /// The VM's deterministic `hash (a, b)` mixer (pure — draws no host
    /// state), so native forms match bytecode hashing bit-for-bit.
    pub fn hash(&self, a: i64, b: i64) -> i64 {
        eden_vm::hash2(a, b)
    }

    /// Direct the packet to rate-limited queue `queue` charging `charge`.
    pub fn set_queue(&mut self, queue: i64, charge: i64) -> Result<(), VmError> {
        self.host.effect(Effect::SetQueue { queue, charge })
    }

    /// Drop the packet (the function should `return Ok(Outcome::Dropped)`
    /// right after).
    pub fn drop_packet(&mut self) -> Result<(), VmError> {
        self.host.effect(Effect::Drop)
    }

    /// Punt the packet to the controller.
    pub fn to_controller(&mut self) -> Result<(), VmError> {
        self.host.effect(Effect::ToController)
    }
}

/// A native (compiled-Rust) action function.
pub type NativeFn = Box<dyn FnMut(&mut NativeEnv<'_>) -> Result<Outcome, VmError> + 'static>;

/// The two execution forms of an action function.
// A program carries its envelope (a few hundred bytes of slot sets) inline:
// an enclave holds a handful of functions and reads the program on every
// packet, so the size is cheaper than a pointer chase would be.
#[allow(clippy::large_enum_variant)]
pub enum ActionImpl {
    /// Controller-compiled bytecode, run by the Eden interpreter.
    Interpreted(eden_vm::Program),
    /// Hard-coded logic (the evaluation's "native" arm).
    Native(NativeFn),
}

impl std::fmt::Debug for ActionImpl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActionImpl::Interpreted(p) => write!(f, "Interpreted({})", p.name()),
            ActionImpl::Native(_) => write!(f, "Native(<fn>)"),
        }
    }
}

/// Everything the enclave needs to run one installed function.
#[derive(Debug)]
pub struct InstalledFunction {
    pub name: String,
    pub action: ActionImpl,
    pub schema: Schema,
    pub concurrency: Concurrency,
}

impl InstalledFunction {
    /// Wrap a compiled DSL function.
    pub fn interpreted(name: &str, compiled: CompiledFunction) -> InstalledFunction {
        InstalledFunction {
            name: name.to_string(),
            concurrency: compiled.concurrency,
            schema: compiled.schema,
            action: ActionImpl::Interpreted(compiled.program),
        }
    }

    /// Wrap bytecode received over the wire (controller shipping path).
    /// The blob is decoded and **re-verified**; `schema` and `concurrency`
    /// travel as enclave configuration, exactly like table rules do — and
    /// are believed no more than the bytecode is: installing the result
    /// links the program against both, and refuses a function whose code
    /// writes what its declared level says it does not.
    pub fn from_shipped(
        shipped: &ShippedFunction,
    ) -> Result<InstalledFunction, eden_vm::CodecError> {
        let program = eden_vm::decode_program(&shipped.bytecode)?;
        Ok(InstalledFunction {
            name: shipped.name.clone(),
            action: ActionImpl::Interpreted(program),
            schema: shipped.schema.clone(),
            concurrency: shipped.concurrency,
        })
    }

    /// Wrap a native closure. The `schema` still describes its state (for
    /// binding and slot sizing); `concurrency` mirrors what the compiler
    /// would derive, stated explicitly since Rust code cannot be analysed.
    pub fn native(
        name: &str,
        f: NativeFn,
        schema: Schema,
        concurrency: Concurrency,
    ) -> InstalledFunction {
        InstalledFunction {
            name: name.to_string(),
            action: ActionImpl::Native(f),
            schema,
            concurrency,
        }
    }
}
