//! A panic on the service's commit thread poisons the service with its
//! cause: `flush` returns `Poisoned` instead of waiting forever, and
//! `shutdown` hands the panic back in `ServiceShutdown::error` (with the
//! engine) instead of panicking.  The durable prefix stays recoverable.

use fivm_cdc::{CdcService, DurableEngine, ServiceConfig};
use fivm_common::Value;
use fivm_core::Engine;
use fivm_data::figure1::{figure1_database, figure1_tree};
use fivm_relation::{tuple, Update};
use fivm_ring::LiftFn;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A COUNT engine over Figure 1 whose every lift is 1 until `armed` is
/// set, and panics after.
fn count_engine(armed: &Arc<AtomicBool>) -> Engine<i64> {
    let tree = figure1_tree(false);
    let armed = Arc::clone(armed);
    let lift = LiftFn::new("armed_unit", move |_: &Value| {
        assert!(!armed.load(Ordering::SeqCst), "armed lift fired");
        1i64
    });
    let lifts = vec![lift; tree.spec().num_vars()];
    Engine::new(tree, lifts).unwrap()
}

fn loaded(armed: &Arc<AtomicBool>) -> Engine<i64> {
    let mut engine = count_engine(armed);
    engine.load_database(&figure1_database()).unwrap();
    engine
}

fn r_row(a: i64) -> Update {
    Update::inserts("R", vec![tuple([Value::int(a), Value::int(10)])])
}

#[test]
fn a_commit_thread_panic_poisons_the_service_and_flush_returns() {
    let dir = std::env::temp_dir().join(format!("fivm_cdc_commit_panic_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let armed = Arc::new(AtomicBool::new(false));
    let service = CdcService::start(loaded(&armed), &dir, ServiceConfig::default()).unwrap();
    let batches = [r_row(1), r_row(2), r_row(3)];
    service.submit(batches[0].clone()).unwrap();
    service.submit(batches[1].clone()).unwrap();
    assert_eq!(service.flush().unwrap(), 2);

    // Batch 3 is made durable, then its apply panics on the commit thread.
    armed.store(true, Ordering::SeqCst);
    service.submit(batches[2].clone()).unwrap();
    let service = Arc::new(service);
    let (tx, rx) = mpsc::channel();
    let flusher = Arc::clone(&service);
    let flushing = std::thread::spawn(move || {
        let _ = tx.send(flusher.flush());
    });
    let err = (rx.recv_timeout(Duration::from_secs(20)))
        .expect("flush must return once the commit thread has panicked")
        .unwrap_err();
    assert_eq!(err.kind(), "poisoned", "{err}");
    assert!(err.to_string().contains("armed lift fired"), "{err}");
    assert!(service.is_poisoned());

    flushing.join().unwrap();
    let service = Arc::try_unwrap(service).ok().expect("the flusher released its handle");
    let done = service.shutdown();
    let cause = done.error.expect("the panic poisons the service");
    assert_eq!(cause.kind(), "poisoned");
    assert!(cause.to_string().contains("armed lift fired"), "{cause}");
    assert_eq!((done.durable_seq, done.applied_seq), (3, 2));

    // Recovery (with a lift that does not panic) replays all three batches.
    armed.store(false, Ordering::SeqCst);
    let (recovered, report) =
        DurableEngine::recover(count_engine(&armed), &figure1_database(), &dir).unwrap();
    assert_eq!(report.last_seq, 3);
    let mut reference = loaded(&armed);
    for u in &batches {
        reference.apply_update(u).unwrap();
    }
    assert_eq!(recovered.state().result(), reference.result());
    let _ = std::fs::remove_dir_all(&dir);
}
