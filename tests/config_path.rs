//! One configuration path: the op list a host applies locally is the one
//! the root would ship.
//!
//! Every host role the figures and the catalogue configure is an
//! [`EnclaveOp`] list. Applied to a fresh enclave through
//! [`Enclave::apply`], it must give the configuration that
//! [`Config::from_ops`] models from the same list — the value the root and
//! the aggregators hold and ship in-band. So the digests agree, and so does
//! every global and array the list writes. What this holds is what a run
//! under the in-band control plane needs: the same lists, shipped instead
//! of applied.

use eden::apps::functions::{self, catalogue, catalogue_rules, Form};
use eden::core::{ClassId, Config, Enclave, EnclaveConfig, EnclaveOp, FuncId};
use eden_bench::{fig09, fig10, fig11};

/// Apply `ops` to a fresh enclave and hold it to the model of `ops`.
fn check(role: &str, ops: Vec<EnclaveOp>) {
    let model = Config::from_ops(&ops).unwrap_or_else(|e| panic!("{role}: model refuses: {e}"));
    let mut e = Enclave::new(EnclaveConfig::default());
    e.apply(ops)
        .unwrap_or_else(|err| panic!("{role}: enclave refuses: {err}"));
    assert_eq!(e.config_digest(), model.digest(), "{role}: digests differ");
    for (&(func, slot), &value) in model.globals() {
        assert_eq!(e.global(FuncId(func), slot), value, "{role}: global {slot}");
    }
    for ((func, array), values) in model.arrays() {
        let state = e.function_state(FuncId(*func));
        assert_eq!(&state.arrays[*array], values, "{role}: array {array}");
    }
}

/// A one-bundle host's full list: the function shipped, then its rule and
/// state.
fn shipped_with(bundle: &functions::FunctionBundle, rules: Vec<EnclaveOp>) -> Vec<EnclaveOp> {
    let mut ops = vec![bundle.shipped()];
    ops.extend(rules);
    ops
}

#[test]
fn every_catalogue_host_applies_what_the_root_would_ship() {
    let bundles = catalogue();
    for bundle in &bundles {
        let rules = catalogue_rules(std::slice::from_ref(bundle));
        check(bundle.name, shipped_with(bundle, rules));
    }
    let mut all: Vec<EnclaveOp> = bundles.iter().map(|b| b.shipped()).collect();
    all.extend(catalogue_rules(&bundles));
    check("the whole catalogue", all);
}

#[test]
fn every_figure_host_applies_what_the_root_would_ship() {
    let class = ClassId(7);
    for bundle in [functions::pias(), functions::sff()] {
        let rules = fig09::sender_rules(class);
        check(
            &format!("fig09 {} sender", bundle.name),
            shipped_with(&bundle, rules),
        );
    }
    for balancer in [fig10::Balancer::Wcmp, fig10::Balancer::Ecmp] {
        let rules = fig10::sender_rules(balancer, class);
        check(
            &format!("fig10 {balancer:?} sender"),
            shipped_with(&functions::wcmp(), rules),
        );
    }
    let rules = fig11::reader_rules(class, 0);
    check(
        "fig11 READ tenant",
        shipped_with(&functions::pulsar(), rules),
    );
}

#[test]
fn a_native_host_holds_the_state_of_its_interpreted_twin() {
    // native functions install by `&mut`, then take the same rule and
    // state ops; what the ops write must land alike in both arms
    let bundles = catalogue();
    let interp = functions::catalogue_enclave(&bundles, Form::Interpreted, Default::default());
    let native = functions::catalogue_enclave(&bundles, Form::Native, Default::default());
    for (f, bundle) in bundles.iter().enumerate() {
        let (a, b) = (
            interp.function_state(FuncId(f)),
            native.function_state(FuncId(f)),
        );
        assert_eq!(a.global, b.global, "{}: globals", bundle.name);
        assert_eq!(a.arrays, b.arrays, "{}: arrays", bundle.name);
    }
}
