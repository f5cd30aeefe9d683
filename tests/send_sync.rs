//! Compile-time thread-safety audit: the types the admission daemon
//! shares across worker threads must be `Send + Sync`. These assertions
//! fail at compile time if anyone reintroduces `Rc`/`RefCell` (or a raw
//! pointer) into the shared data model.

use data_staging::core::bookings::Bookings;
use data_staging::core::planner::Planner;
use data_staging::core::schedule::Schedule;
use data_staging::model::scenario::Scenario;
use data_staging::resources::ledger::NetworkLedger;
use data_staging::service::engine::AdmissionEngine;
use data_staging::service::server::Server;
use data_staging::sim::runner::Harness;

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn shared_scheduling_state_is_send_and_sync() {
    // The data model the service holds behind its RwLock.
    assert_send_sync::<Scenario>();
    assert_send_sync::<Schedule>();
    assert_send_sync::<NetworkLedger>();
    // The in-flight bookings (they borrow the scenario, so they are
    // checked at a concrete lifetime) and the planner that reads them.
    assert_send_sync::<Bookings<'static>>();
    assert_send_sync::<Planner>();
    // The service layer itself.
    assert_send_sync::<AdmissionEngine>();
    assert_send_sync::<Server>();
    // The experiment harness (Arc + Mutex caches, not Rc + RefCell).
    assert_send_sync::<Harness>();
}
