//! The Aware Home: one façade wiring the GRBAC engine to the
//! environment substrate, the household, and the device catalog.
//!
//! [`HomeBuilder`] assembles rooms, people and devices;
//! [`HomeBuilder::build`] then declares the standard vocabulary — the
//! Figure 2 subject-role hierarchy, an object-role taxonomy keyed off
//! [`DeviceKind`], the §5.1 environment roles — and returns a ready
//! [`AwareHome`]. Every access request flows:
//!
//! ```text
//! request → environment snapshot (clock/location/load/state)
//!         → GRBAC mediation → audited decision
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use grbac_core::confidence::AuthContext;
use grbac_core::degraded::EnvHealth;
use grbac_core::engine::{AccessRequest, Actor, Grbac};
use grbac_core::environment::EnvironmentSnapshot;
use grbac_core::explain::Decision;
use grbac_core::id::{ObjectId, RoleId, SubjectId, TransactionId};
use grbac_core::telemetry::{AlertRecord, DecisionWatchdog, WatchdogConfig};
use grbac_env::calendar::TimeExpr;
use grbac_env::clock::VirtualClock;
use grbac_env::events::EventBus;
use grbac_env::fault::{FaultInjector, FaultPlan};
use grbac_env::load::LoadMonitor;
use grbac_env::location::{OccupancyTracker, Topology, ZoneId};
use grbac_env::provider::{EnvCondition, EnvironmentContext, EnvironmentRoleProvider};
use grbac_env::resilient::{ResilienceConfig, ResilientProvider};
use grbac_env::time::{Duration, TimeOfDay, Timestamp};

use crate::device::{Device, DeviceKind};
use crate::error::{HomeError, Result};
use crate::person::{Person, PersonKind};

/// The standard role and transaction vocabulary every home starts with.
///
/// Fields are public by design: the vocabulary is a passive lookup table
/// handed around constantly by scenarios, applications and benches.
#[derive(Debug, Clone, Copy)]
#[allow(missing_docs)]
pub struct HomeVocabulary {
    // Subject roles (Figure 2, extended with elder/care roles for the
    // §2 applications).
    pub home_user: RoleId,
    pub family_member: RoleId,
    pub parent: RoleId,
    pub child: RoleId,
    pub elder: RoleId,
    pub authorized_guest: RoleId,
    pub service_agent: RoleId,
    pub care_specialist: RoleId,
    pub pet: RoleId,
    // Object roles.
    pub resource: RoleId,
    pub device: RoleId,
    pub entertainment_device: RoleId,
    pub appliance: RoleId,
    pub dangerous_appliance: RoleId,
    pub communication_device: RoleId,
    pub utility_control: RoleId,
    pub sensitive_sensor: RoleId,
    pub security_device: RoleId,
    pub document: RoleId,
    pub sensitive_document: RoleId,
    pub medical_record: RoleId,
    pub financial_record: RoleId,
    // Environment roles.
    pub weekdays: RoleId,
    pub weekend: RoleId,
    pub free_time: RoleId,
    pub night: RoleId,
    pub daytime: RoleId,
    pub home_occupied: RoleId,
    pub home_empty: RoleId,
    // Transactions.
    pub operate: TransactionId,
    pub view: TransactionId,
    pub read: TransactionId,
    pub write: TransactionId,
    pub adjust: TransactionId,
    pub repair: TransactionId,
}

impl HomeVocabulary {
    /// The subject role a person of this kind is assigned at build time.
    #[must_use]
    pub fn role_for(&self, kind: PersonKind) -> RoleId {
        match kind {
            PersonKind::Adult => self.parent,
            PersonKind::Child => self.child,
            PersonKind::Elder => self.elder,
            PersonKind::Guest => self.authorized_guest,
            PersonKind::ServiceAgent => self.service_agent,
            PersonKind::Pet => self.pet,
        }
    }

    /// The object roles a device of this kind is born with (most
    /// specific first; the hierarchy supplies the rest).
    #[must_use]
    pub fn object_roles_for(&self, kind: DeviceKind) -> Vec<RoleId> {
        let mut roles = Vec::new();
        if kind.is_entertainment() {
            roles.push(self.entertainment_device);
        }
        if kind.is_dangerous() {
            roles.push(self.dangerous_appliance);
        } else if kind.is_appliance() {
            roles.push(self.appliance);
        }
        if kind.is_communication() {
            roles.push(self.communication_device);
        }
        if kind.is_utility() {
            roles.push(self.utility_control);
        }
        if kind.is_sensitive_sensor() {
            roles.push(self.sensitive_sensor);
        }
        if kind == DeviceKind::DoorLock {
            roles.push(self.security_device);
        }
        if roles.is_empty() {
            // Plain devices (e.g. computers) map to the generic role.
            roles.push(self.device);
        }
        roles
    }
}

/// The assembled smart home.
#[derive(Debug)]
pub struct AwareHome {
    /// Shared so an observability server (see
    /// [`serve_observability`](Self::serve_observability)) can read the
    /// engine concurrently with the home mediating requests. The home
    /// decides under the read lock and takes the write lock only to
    /// change the policy.
    engine: Arc<RwLock<Grbac>>,
    vocab: HomeVocabulary,
    provider: EnvironmentRoleProvider,
    /// When installed (see [`install_fault_layer`]
    /// (Self::install_fault_layer)), requests poll the environment
    /// through this fault-injecting resilient chain instead of the bare
    /// provider, and carry the resulting [`EnvHealth`].
    resilience: Option<ResilientProvider<FaultInjector<EnvironmentRoleProvider>>>,
    /// When installed (see [`install_watchdog`](Self::install_watchdog)),
    /// [`watchdog_tick`](Self::watchdog_tick) folds the engine's metric
    /// counters into EWMA baselines and raises anomaly alerts. Shared
    /// behind a mutex so the observability `/health` endpoint can tick
    /// the same baselines the home does.
    watchdog: Arc<Mutex<Option<DecisionWatchdog>>>,
    topology: Topology,
    occupancy: OccupancyTracker,
    load: LoadMonitor,
    events: EventBus,
    clock: VirtualClock,
    home_zone: ZoneId,
    people: HashMap<SubjectId, Person>,
    people_by_name: HashMap<String, SubjectId>,
    devices: HashMap<ObjectId, Device>,
    devices_by_name: HashMap<String, ObjectId>,
}

impl AwareHome {
    /// Starts assembling a home.
    #[must_use]
    pub fn builder() -> HomeBuilder {
        HomeBuilder::new()
    }

    /// The policy engine (read-only). Holds the engine's read lock for
    /// the guard's lifetime; drop it before calling any `&mut self`
    /// method on the home.
    pub fn engine(&self) -> RwLockReadGuard<'_, Grbac> {
        self.engine.read().expect("engine lock poisoned")
    }

    /// The policy engine, for adding rules and constraints. Holds the
    /// engine's write lock for the guard's lifetime.
    pub fn engine_mut(&mut self) -> RwLockWriteGuard<'_, Grbac> {
        self.engine.write().expect("engine lock poisoned")
    }

    /// A shared handle to the engine, for observers (like the
    /// `grbac-obs` server) that outlive any single borrow of the home.
    #[must_use]
    pub fn engine_handle(&self) -> Arc<RwLock<Grbac>> {
        Arc::clone(&self.engine)
    }

    /// The engine's decision flight recorder: the last N mediation
    /// outcomes with their environment snapshot hashes, ready for
    /// forensic query and replay (see `grbac_core::provenance`).
    #[must_use]
    pub fn flight_recorder(&self) -> std::sync::Arc<grbac_core::provenance::FlightRecorder> {
        std::sync::Arc::clone(self.engine().flight_recorder())
    }

    /// The standard vocabulary.
    #[must_use]
    pub fn vocab(&self) -> &HomeVocabulary {
        &self.vocab
    }

    /// The spatial model.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The zone representing the whole home.
    #[must_use]
    pub fn home_zone(&self) -> ZoneId {
        self.home_zone
    }

    /// Occupant positions.
    #[must_use]
    pub fn occupancy(&self) -> &OccupancyTracker {
        &self.occupancy
    }

    /// The event bus (publishing also updates the state store used by
    /// `Flag`/`Number*` environment conditions).
    pub fn events_mut(&mut self) -> &mut EventBus {
        &mut self.events
    }

    /// The system-load monitor.
    pub fn load_mut(&mut self) -> &mut LoadMonitor {
        &mut self.load
    }

    /// The current simulated time.
    #[must_use]
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Advances the simulated clock.
    pub fn advance(&mut self, by: Duration) {
        self.clock.advance(by);
    }

    /// Jumps the clock forward to `instant` (ignored if in the past).
    pub fn advance_to(&mut self, instant: Timestamp) -> bool {
        self.clock.advance_to(instant)
    }

    /// Looks up a person by name.
    ///
    /// # Errors
    ///
    /// [`HomeError::UnknownPerson`].
    pub fn person(&self, name: &str) -> Result<&Person> {
        self.people_by_name
            .get(name)
            .and_then(|id| self.people.get(id))
            .ok_or_else(|| HomeError::UnknownPerson(name.to_owned()))
    }

    /// Looks up a device by name.
    ///
    /// # Errors
    ///
    /// [`HomeError::UnknownDevice`].
    pub fn device(&self, name: &str) -> Result<&Device> {
        self.devices_by_name
            .get(name)
            .and_then(|id| self.devices.get(id))
            .ok_or_else(|| HomeError::UnknownDevice(name.to_owned()))
    }

    /// Looks up a room by name.
    ///
    /// # Errors
    ///
    /// [`HomeError::UnknownRoom`].
    pub fn room(&self, name: &str) -> Result<ZoneId> {
        self.topology
            .find(name)
            .map_err(|_| HomeError::UnknownRoom(name.to_owned()))
    }

    /// Everyone in the household (and visiting), unspecified order.
    pub fn people(&self) -> impl Iterator<Item = &Person> {
        self.people.values()
    }

    /// Every installed device, unspecified order.
    pub fn devices(&self) -> impl Iterator<Item = &Device> {
        self.devices.values()
    }

    /// Moves a person into a zone (sensors noticing them there).
    pub fn place(&mut self, subject: SubjectId, zone: ZoneId) {
        self.occupancy.place(subject, zone);
    }

    /// Records a person leaving the premises.
    pub fn remove_from_home(&mut self, subject: SubjectId) {
        self.occupancy.remove(subject);
    }

    /// Defines a new environment role activated by `condition`.
    ///
    /// # Errors
    ///
    /// Duplicate role names or definitions.
    pub fn define_environment_role(
        &mut self,
        name: &str,
        condition: EnvCondition,
    ) -> Result<RoleId> {
        let role = self.engine_mut().declare_environment_role(name)?;
        self.provider.define(role, condition)?;
        Ok(role)
    }

    /// Defines the location role "subject is inside `zone`" — §4.2.2's
    /// `in_kitchen`-style roles.
    ///
    /// # Errors
    ///
    /// Duplicate role names.
    pub fn define_location_role(&mut self, name: &str, zone: ZoneId) -> Result<RoleId> {
        self.define_environment_role(name, EnvCondition::SubjectInZone(zone))
    }

    /// Computes the environment snapshot a request by `subject` would
    /// see right now.
    #[must_use]
    pub fn environment_for(&self, subject: Option<SubjectId>) -> EnvironmentSnapshot {
        let mut ctx = EnvironmentContext::at(self.clock.now())
            .with_location(&self.topology, &self.occupancy)
            .with_load(&self.load)
            .with_state(self.events.state());
        if let Some(s) = subject {
            ctx = ctx.with_subject(s);
        }
        self.provider.snapshot(&ctx)
    }

    /// Routes environment polling through a fault-injecting resilient
    /// chain: a clone of the current provider wrapped in a
    /// [`FaultInjector`] driven by `plan`, wrapped in a
    /// [`ResilientProvider`] tuned by `config` and publishing into the
    /// engine's metrics registry. Subsequent [`request`](Self::request)
    /// and [`request_sensed`](Self::request_sensed) calls attach the
    /// observed [`EnvHealth`] so the engine's
    /// [`DegradedMode`](grbac_core::degraded::DegradedMode) policy
    /// applies. Installing again replaces the previous chain;
    /// environment roles defined *after* installation are not seen by
    /// the chain until it is reinstalled.
    pub fn install_fault_layer(&mut self, plan: FaultPlan, config: ResilienceConfig) {
        let faulty = FaultInjector::new(self.provider.clone(), plan);
        let mut resilient = ResilientProvider::new(faulty, config);
        resilient.attach_metrics(Arc::clone(self.engine().metrics()));
        self.resilience = Some(resilient);
    }

    /// Removes the fault layer; requests poll the bare provider again.
    pub fn clear_fault_layer(&mut self) {
        self.resilience = None;
    }

    /// The installed fault layer, if any (its
    /// [`stats`](ResilientProvider::stats) expose retry/breaker
    /// activity).
    #[must_use]
    pub fn fault_layer(
        &self,
    ) -> Option<&ResilientProvider<FaultInjector<EnvironmentRoleProvider>>> {
        self.resilience.as_ref()
    }

    /// Arms a decision-stream watchdog over the engine's metrics
    /// registry. Call [`watchdog_tick`](Self::watchdog_tick) at a steady
    /// cadence (e.g. once per simulated hour, or every N requests) to
    /// fold the counters into EWMA baselines and collect anomaly
    /// alerts. Installing again replaces the previous watchdog and its
    /// learned baselines.
    pub fn install_watchdog(&mut self, config: WatchdogConfig) {
        *self.watchdog.lock().expect("watchdog lock poisoned") =
            Some(DecisionWatchdog::new(config));
    }

    /// Removes the watchdog (its alert history goes with it; alert
    /// counters already exported to the registry remain).
    pub fn clear_watchdog(&mut self) {
        *self.watchdog.lock().expect("watchdog lock poisoned") = None;
    }

    /// Runs `f` against the installed watchdog, if any (its
    /// [`alerts`](DecisionWatchdog::alerts) expose the retained alert
    /// log). Returns `None` when no watchdog is installed.
    pub fn with_watchdog<R>(&self, f: impl FnOnce(&DecisionWatchdog) -> R) -> Option<R> {
        self.watchdog
            .lock()
            .expect("watchdog lock poisoned")
            .as_ref()
            .map(f)
    }

    /// A shared handle to the watchdog slot, for observers (like the
    /// `grbac-obs` `/health` endpoint) that tick the same baselines.
    #[must_use]
    pub fn watchdog_handle(&self) -> Arc<Mutex<Option<DecisionWatchdog>>> {
        Arc::clone(&self.watchdog)
    }

    /// Starts a `grbac-obs` observability server over this home's
    /// engine and watchdog (use port 0 in `addr` for an ephemeral
    /// port). The server shares the live engine — scrapes see every
    /// mediated decision immediately — and `/health` ticks the same
    /// watchdog baselines [`watchdog_tick`](Self::watchdog_tick) does.
    /// Shut it down with [`grbac_obs::ObsServer::shutdown`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn serve_observability(
        &self,
        addr: impl std::net::ToSocketAddrs,
    ) -> std::io::Result<grbac_obs::ObsServer> {
        grbac_obs::ObsServer::serve(
            grbac_obs::EngineObs::with_watchdog(self.engine_handle(), self.watchdog_handle())
                .with_live_telemetry(),
            addr,
        )
    }

    /// Advances the watchdog one observation window: reads the engine's
    /// counters, updates the EWMA baselines, and returns any alerts the
    /// window raised. Returns an empty vector when no watchdog is
    /// installed.
    pub fn watchdog_tick(&mut self) -> Vec<AlertRecord> {
        let metrics = Arc::clone(self.engine().metrics());
        match &mut *self.watchdog.lock().expect("watchdog lock poisoned") {
            Some(watchdog) => watchdog.tick(&metrics),
            None => Vec::new(),
        }
    }

    /// The environment snapshot and its health for a request by
    /// `subject` right now: fresh from the bare provider when no fault
    /// layer is installed, otherwise whatever the resilient chain could
    /// produce (possibly stale or unavailable).
    pub fn environment_with_health(
        &mut self,
        subject: Option<SubjectId>,
    ) -> (EnvironmentSnapshot, EnvHealth) {
        let mut ctx = EnvironmentContext::at(self.clock.now())
            .with_location(&self.topology, &self.occupancy)
            .with_load(&self.load)
            .with_state(self.events.state());
        if let Some(s) = subject {
            ctx = ctx.with_subject(s);
        }
        match &mut self.resilience {
            Some(resilient) => {
                let outcome = resilient.poll(&ctx);
                (outcome.snapshot(), outcome.health())
            }
            None => (self.provider.snapshot(&ctx), EnvHealth::Fresh),
        }
    }

    /// Mediates a request from a fully-trusted subject, under the engine
    /// read lock, stamped with the current simulated time in the
    /// engine's decision log.
    ///
    /// # Errors
    ///
    /// Unknown ids ([`HomeError::Grbac`]).
    pub fn request(
        &mut self,
        subject: SubjectId,
        transaction: TransactionId,
        object: ObjectId,
    ) -> Result<Decision> {
        let (environment, env_health) = self.environment_with_health(Some(subject));
        let request = AccessRequest {
            actor: Actor::Subject(subject),
            transaction,
            object,
            environment,
            env_health,
            timestamp: Some(self.clock.now().as_seconds().max(0) as u64),
        };
        Ok(self.engine().decide(&request)?)
    }

    /// Mediates a request from sensor-authenticated evidence (§5.2).
    ///
    /// The environment snapshot uses the identity claim's subject for
    /// location-dependent roles, when present.
    ///
    /// # Errors
    ///
    /// Unknown ids ([`HomeError::Grbac`]).
    pub fn request_sensed(
        &mut self,
        context: AuthContext,
        transaction: TransactionId,
        object: ObjectId,
    ) -> Result<Decision> {
        let subject = context.identity().map(|(s, _)| s);
        let (environment, env_health) = self.environment_with_health(subject);
        let request = AccessRequest {
            actor: Actor::Sensed(context),
            transaction,
            object,
            environment,
            env_health,
            timestamp: Some(self.clock.now().as_seconds().max(0) as u64),
        };
        Ok(self.engine().decide(&request)?)
    }
}

/// Declarative assembly of an [`AwareHome`].
#[derive(Debug, Clone, Default)]
pub struct HomeBuilder {
    rooms: Vec<(String, Option<String>)>,
    people: Vec<(String, PersonKind, f64, String)>,
    devices: Vec<(String, DeviceKind, String)>,
    start: Option<Timestamp>,
}

impl HomeBuilder {
    /// A fresh builder (a `"home"` root zone always exists).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the simulation start time (defaults to the epoch).
    #[must_use]
    pub fn starting_at(mut self, start: Timestamp) -> Self {
        self.start = Some(start);
        self
    }

    /// Adds a room directly inside the home.
    #[must_use]
    pub fn room(mut self, name: impl Into<String>) -> Self {
        self.rooms.push((name.into(), None));
        self
    }

    /// Adds a zone inside another zone (e.g. `kitchen` in `downstairs`).
    #[must_use]
    pub fn room_in(mut self, name: impl Into<String>, parent: impl Into<String>) -> Self {
        self.rooms.push((name.into(), Some(parent.into())));
        self
    }

    /// Adds a person, starting in the given room.
    #[must_use]
    pub fn person(
        mut self,
        name: impl Into<String>,
        kind: PersonKind,
        weight_kg: f64,
        room: impl Into<String>,
    ) -> Self {
        self.people
            .push((name.into(), kind, weight_kg, room.into()));
        self
    }

    /// Installs a device in a room.
    #[must_use]
    pub fn device(
        mut self,
        name: impl Into<String>,
        kind: DeviceKind,
        room: impl Into<String>,
    ) -> Self {
        self.devices.push((name.into(), kind, room.into()));
        self
    }

    /// Assembles the home: declares the standard vocabulary, builds the
    /// Figure 2 hierarchy, maps devices into object roles, defines the
    /// standard environment roles, and places everyone.
    ///
    /// # Errors
    ///
    /// Duplicate names, unknown rooms, or any underlying declaration
    /// error.
    pub fn build(self) -> Result<AwareHome> {
        let mut engine = Grbac::new();
        let mut topology = Topology::new();
        let home_zone = topology.add_zone("home")?;

        for (name, parent) in &self.rooms {
            let parent_zone = match parent {
                Some(p) => topology
                    .find(p)
                    .map_err(|_| HomeError::UnknownRoom(p.clone()))?,
                None => home_zone,
            };
            topology.add_zone_in(name.clone(), parent_zone)?;
        }

        // --- Subject roles: Figure 2, extended. ---
        let home_user = engine.declare_subject_role("home_user")?;
        let family_member = engine.declare_subject_role("family_member")?;
        let parent = engine.declare_subject_role("parent")?;
        let child = engine.declare_subject_role("child")?;
        let elder = engine.declare_subject_role("elder")?;
        let authorized_guest = engine.declare_subject_role("authorized_guest")?;
        let service_agent = engine.declare_subject_role("service_agent")?;
        let care_specialist = engine.declare_subject_role("care_specialist")?;
        let pet = engine.declare_subject_role("pet")?;
        engine.specialize(family_member, home_user)?;
        engine.specialize(parent, family_member)?;
        engine.specialize(child, family_member)?;
        engine.specialize(elder, family_member)?;
        engine.specialize(authorized_guest, home_user)?;
        engine.specialize(service_agent, authorized_guest)?;
        engine.specialize(care_specialist, authorized_guest)?;

        // --- Object roles. ---
        let resource = engine.declare_object_role("resource")?;
        let device = engine.declare_object_role("device")?;
        let entertainment_device = engine.declare_object_role("entertainment_devices")?;
        let appliance = engine.declare_object_role("appliance")?;
        let dangerous_appliance = engine.declare_object_role("dangerous_appliance")?;
        let communication_device = engine.declare_object_role("communication_device")?;
        let utility_control = engine.declare_object_role("utility_control")?;
        let sensitive_sensor = engine.declare_object_role("sensitive_sensor")?;
        let security_device = engine.declare_object_role("security_device")?;
        let document = engine.declare_object_role("document")?;
        let sensitive_document = engine.declare_object_role("sensitive_document")?;
        let medical_record = engine.declare_object_role("medical_record")?;
        let financial_record = engine.declare_object_role("financial_record")?;
        engine.specialize(device, resource)?;
        engine.specialize(entertainment_device, device)?;
        engine.specialize(appliance, device)?;
        engine.specialize(dangerous_appliance, appliance)?;
        engine.specialize(communication_device, device)?;
        engine.specialize(utility_control, device)?;
        engine.specialize(sensitive_sensor, device)?;
        engine.specialize(security_device, device)?;
        engine.specialize(document, resource)?;
        engine.specialize(sensitive_document, document)?;
        engine.specialize(medical_record, sensitive_document)?;
        engine.specialize(financial_record, sensitive_document)?;

        // --- Environment roles (§5.1 definitions). ---
        let weekdays = engine.declare_environment_role("weekdays")?;
        let weekend = engine.declare_environment_role("weekend")?;
        let free_time = engine.declare_environment_role("free_time")?;
        let night = engine.declare_environment_role("night")?;
        let daytime = engine.declare_environment_role("daytime")?;
        let home_occupied = engine.declare_environment_role("home_occupied")?;
        let home_empty = engine.declare_environment_role("home_empty")?;

        let mut provider = EnvironmentRoleProvider::new();
        let seven_pm = TimeOfDay::hm(19, 0)?;
        let ten_pm = TimeOfDay::hm(22, 0)?;
        let six_am = TimeOfDay::hm(6, 0)?;
        provider.define(weekdays, EnvCondition::Time(TimeExpr::weekdays()))?;
        provider.define(weekend, EnvCondition::Time(TimeExpr::weekend()))?;
        provider.define(
            free_time,
            EnvCondition::Time(TimeExpr::between(seven_pm, ten_pm)),
        )?;
        provider.define(night, EnvCondition::Time(TimeExpr::between(ten_pm, six_am)))?;
        provider.define(
            daytime,
            EnvCondition::Time(TimeExpr::between(six_am, ten_pm)),
        )?;
        provider.define(home_occupied, EnvCondition::ZoneOccupied(home_zone))?;
        provider.define(home_empty, EnvCondition::ZoneEmpty(home_zone))?;
        // One registry for the whole home: provider polls and role flaps
        // land next to the engine's decision counters, so a single
        // exported snapshot covers the full mediation pipeline.
        provider.attach_metrics(Arc::clone(engine.metrics()));

        // --- Transactions. ---
        let operate = engine.declare_transaction("operate")?;
        let view = engine.declare_transaction("view")?;
        let read = engine.declare_transaction("read")?;
        let write = engine.declare_transaction("write")?;
        let adjust = engine.declare_transaction("adjust")?;
        let repair = engine.declare_transaction("repair")?;

        let vocab = HomeVocabulary {
            home_user,
            family_member,
            parent,
            child,
            elder,
            authorized_guest,
            service_agent,
            care_specialist,
            pet,
            resource,
            device,
            entertainment_device,
            appliance,
            dangerous_appliance,
            communication_device,
            utility_control,
            sensitive_sensor,
            security_device,
            document,
            sensitive_document,
            medical_record,
            financial_record,
            weekdays,
            weekend,
            free_time,
            night,
            daytime,
            home_occupied,
            home_empty,
            operate,
            view,
            read,
            write,
            adjust,
            repair,
        };

        // --- People. ---
        let mut occupancy = OccupancyTracker::new();
        let mut people = HashMap::new();
        let mut people_by_name = HashMap::new();
        for (name, kind, weight, room) in self.people {
            let subject = engine.declare_subject(name.clone())?;
            engine.assign_subject_role(subject, vocab.role_for(kind))?;
            let zone = topology
                .find(&room)
                .map_err(|_| HomeError::UnknownRoom(room.clone()))?;
            occupancy.place(subject, zone);
            people_by_name.insert(name.clone(), subject);
            people.insert(subject, Person::new(subject, name, kind, weight));
        }

        // --- Devices. ---
        let mut devices = HashMap::new();
        let mut devices_by_name = HashMap::new();
        for (name, kind, room) in self.devices {
            let object = engine.declare_object(name.clone())?;
            let zone = topology
                .find(&room)
                .map_err(|_| HomeError::UnknownRoom(room.clone()))?;
            for role in vocab.object_roles_for(kind) {
                engine.assign_object_role(object, role)?;
            }
            devices_by_name.insert(name.clone(), object);
            devices.insert(object, Device::new(object, name, kind, zone));
        }

        Ok(AwareHome {
            engine: Arc::new(RwLock::new(engine)),
            vocab,
            provider,
            resilience: None,
            watchdog: Arc::new(Mutex::new(None)),
            topology,
            occupancy,
            load: LoadMonitor::new(),
            events: EventBus::new(),
            clock: VirtualClock::starting_at(self.start.unwrap_or(Timestamp::EPOCH)),
            home_zone,
            people,
            people_by_name,
            devices,
            devices_by_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grbac_core::rule::RuleDef;
    use grbac_env::time::Date;

    fn monday_8pm() -> Timestamp {
        Timestamp::from_civil(
            Date::new(2000, 1, 17).unwrap(),
            TimeOfDay::hm(20, 0).unwrap(),
        )
    }

    fn small_home() -> AwareHome {
        AwareHome::builder()
            .starting_at(monday_8pm())
            .room("living_room")
            .room("kitchen")
            .person("mom", PersonKind::Adult, 61.0, "kitchen")
            .person("bobby", PersonKind::Child, 38.0, "living_room")
            .device("tv", DeviceKind::Television, "living_room")
            .device("oven", DeviceKind::Oven, "kitchen")
            .build()
            .unwrap()
    }

    #[test]
    fn build_wires_vocabulary_and_entities() {
        let home = small_home();
        assert_eq!(home.people().count(), 2);
        assert_eq!(home.devices().count(), 2);
        assert_eq!(home.person("bobby").unwrap().kind(), PersonKind::Child);
        assert_eq!(home.device("tv").unwrap().kind(), DeviceKind::Television);
        assert!(home.person("nobody").is_err());
        assert!(home.device("toaster").is_err());
        assert!(home.room("kitchen").is_ok());
        assert!(home.room("attic").is_err());
    }

    #[test]
    fn environment_roles_reflect_time_and_occupancy() {
        let home = small_home();
        let vocab = *home.vocab();
        let env = home.environment_for(None);
        assert!(env.is_active(vocab.weekdays), "Monday");
        assert!(env.is_active(vocab.free_time), "8 pm");
        assert!(env.is_active(vocab.home_occupied));
        assert!(!env.is_active(vocab.home_empty));
        assert!(!env.is_active(vocab.weekend));
        assert!(!env.is_active(vocab.night));
    }

    #[test]
    fn section51_policy_end_to_end() {
        let mut home = small_home();
        let vocab = *home.vocab();
        home.engine_mut()
            .add_rule(
                RuleDef::permit()
                    .named("kids tv policy")
                    .subject_role(vocab.child)
                    .object_role(vocab.entertainment_device)
                    .transaction(vocab.operate)
                    .when(vocab.weekdays)
                    .when(vocab.free_time),
            )
            .unwrap();

        let bobby = home.person("bobby").unwrap().subject();
        let tv = home.device("tv").unwrap().object();

        // Monday 8 pm: granted.
        let d = home.request(bobby, vocab.operate, tv).unwrap();
        assert!(d.is_permitted());

        // Advance past bedtime (10 pm): denied.
        home.advance(Duration::hours(3));
        let d = home.request(bobby, vocab.operate, tv).unwrap();
        assert!(!d.is_permitted());

        // Audit recorded both.
        assert_eq!(home.engine().audit().total_recorded(), 2);
    }

    #[test]
    fn dangerous_appliance_deny_rule() {
        let mut home = small_home();
        let vocab = *home.vocab();
        // Adults may use appliances; children are denied dangerous ones.
        home.engine_mut()
            .add_rule(
                RuleDef::permit()
                    .subject_role(vocab.family_member)
                    .object_role(vocab.appliance),
            )
            .unwrap();
        home.engine_mut()
            .add_rule(
                RuleDef::deny()
                    .subject_role(vocab.child)
                    .object_role(vocab.dangerous_appliance),
            )
            .unwrap();

        let mom = home.person("mom").unwrap().subject();
        let bobby = home.person("bobby").unwrap().subject();
        let oven = home.device("oven").unwrap().object();

        assert!(home
            .request(mom, vocab.operate, oven)
            .unwrap()
            .is_permitted());
        assert!(!home
            .request(bobby, vocab.operate, oven)
            .unwrap()
            .is_permitted());
    }

    #[test]
    fn location_roles_gate_access() {
        let mut home = small_home();
        let vocab = *home.vocab();
        let kitchen = home.room("kitchen").unwrap();
        let in_kitchen = home.define_location_role("in_kitchen", kitchen).unwrap();
        // "children may only use the videophone while in the kitchen" —
        // stand-in: TV usable only from the kitchen.
        home.engine_mut()
            .add_rule(
                RuleDef::permit()
                    .subject_role(vocab.child)
                    .object_role(vocab.entertainment_device)
                    .when(in_kitchen),
            )
            .unwrap();

        let bobby = home.person("bobby").unwrap().subject();
        let tv = home.device("tv").unwrap().object();

        // Bobby starts in the living room: denied.
        assert!(!home
            .request(bobby, vocab.operate, tv)
            .unwrap()
            .is_permitted());
        // Move him to the kitchen: granted.
        home.place(bobby, kitchen);
        assert!(home
            .request(bobby, vocab.operate, tv)
            .unwrap()
            .is_permitted());
    }

    #[test]
    fn home_empty_role_tracks_departures() {
        let mut home = small_home();
        let vocab = *home.vocab();
        let mom = home.person("mom").unwrap().subject();
        let bobby = home.person("bobby").unwrap().subject();
        assert!(home.environment_for(None).is_active(vocab.home_occupied));
        home.remove_from_home(mom);
        home.remove_from_home(bobby);
        let env = home.environment_for(None);
        assert!(env.is_active(vocab.home_empty));
        assert!(!env.is_active(vocab.home_occupied));
    }

    #[test]
    fn unknown_room_fails_build() {
        let result = AwareHome::builder()
            .person("mom", PersonKind::Adult, 61.0, "nowhere")
            .build();
        assert!(matches!(result, Err(HomeError::UnknownRoom(_))));
        let result = AwareHome::builder()
            .device("tv", DeviceKind::Television, "nowhere")
            .build();
        assert!(matches!(result, Err(HomeError::UnknownRoom(_))));
        let result = AwareHome::builder().room_in("shelf", "nowhere").build();
        assert!(matches!(result, Err(HomeError::UnknownRoom(_))));
    }

    #[test]
    fn request_sensed_uses_identity_for_location_roles() {
        let mut home = small_home();
        let vocab = *home.vocab();
        let kitchen = home.room("kitchen").unwrap();
        let in_kitchen = home.define_location_role("in_kitchen", kitchen).unwrap();
        home.engine_mut()
            .set_default_min_confidence(grbac_core::Confidence::new(0.9).unwrap());
        home.engine_mut()
            .add_rule(
                RuleDef::permit()
                    .subject_role(vocab.child)
                    .object_role(vocab.entertainment_device)
                    .when(in_kitchen),
            )
            .unwrap();

        let bobby = home.person("bobby").unwrap().subject();
        home.place(bobby, kitchen);
        let tv = home.device("tv").unwrap().object();

        let mut ctx = AuthContext::new();
        ctx.claim_identity(bobby, grbac_core::Confidence::new(0.75).unwrap());
        ctx.claim_role(vocab.child, grbac_core::Confidence::new(0.98).unwrap());
        let d = home.request_sensed(ctx, vocab.operate, tv).unwrap();
        assert!(d.is_permitted());
    }

    #[test]
    fn provider_polls_flow_into_engine_metrics() {
        use grbac_core::telemetry;

        let mut home = small_home();
        let vocab = *home.vocab();
        home.engine_mut()
            .add_rule(
                RuleDef::permit()
                    .subject_role(vocab.child)
                    .object_role(vocab.entertainment_device)
                    .when(vocab.free_time),
            )
            .unwrap();
        let bobby = home.person("bobby").unwrap().subject();
        let tv = home.device("tv").unwrap().object();

        home.request(bobby, vocab.operate, tv).unwrap();
        // Past bedtime: free_time deactivates, night activates.
        home.advance(Duration::hours(3));
        home.request(bobby, vocab.operate, tv).unwrap();

        if telemetry::ENABLED {
            let snapshot = home.engine().metrics_snapshot();
            assert_eq!(snapshot.counter("grbac_env_polls_total"), 2);
            // Poll 1 activates weekdays/free_time/daytime/home_occupied;
            // poll 2 swaps {free_time, daytime} for {night}.
            assert_eq!(snapshot.counter("grbac_env_role_activations_total"), 5);
            assert_eq!(snapshot.counter("grbac_env_role_deactivations_total"), 2);
            // The same snapshot carries the decisions those polls fed.
            assert_eq!(
                snapshot.counter("grbac_decisions_permit_total")
                    + snapshot.counter("grbac_decisions_deny_total"),
                2
            );
        }
    }

    #[test]
    fn watchdog_flags_a_deny_surge_over_live_requests() {
        use grbac_core::telemetry::{self, AlertKind};

        let mut home = small_home();
        let vocab = *home.vocab();
        home.engine_mut()
            .add_rule(
                RuleDef::permit()
                    .subject_role(vocab.child)
                    .object_role(vocab.entertainment_device)
                    .when(vocab.free_time),
            )
            .unwrap();
        home.install_watchdog(WatchdogConfig {
            warmup_ticks: 3,
            min_decisions: 1,
            min_polls: 1,
            ..WatchdogConfig::default()
        });

        let bobby = home.person("bobby").unwrap().subject();
        let tv = home.device("tv").unwrap().object();

        // A calm evening: all-permit windows build the baseline.
        let mut calm_alerts = 0;
        for _ in 0..6 {
            for _ in 0..4 {
                assert!(home
                    .request(bobby, vocab.operate, tv)
                    .unwrap()
                    .is_permitted());
            }
            calm_alerts += home.watchdog_tick().len();
        }
        assert_eq!(calm_alerts, 0, "no alerts on a fault-free run");

        // Past bedtime every request denies: the deny rate leaps from
        // the learned 0 to 1.
        home.advance(Duration::hours(3));
        for _ in 0..4 {
            assert!(!home
                .request(bobby, vocab.operate, tv)
                .unwrap()
                .is_permitted());
        }
        let alerts = home.watchdog_tick();
        if telemetry::ENABLED {
            assert!(alerts.iter().any(|a| a.kind == AlertKind::DenyRateSpike));
            assert!(home.with_watchdog(|w| w.alert_count()).unwrap() >= 1);
        } else {
            assert!(alerts.is_empty());
        }
    }

    #[test]
    fn observability_endpoint_serves_the_live_home() {
        use grbac_core::telemetry;

        let mut home = small_home();
        let vocab = *home.vocab();
        home.engine_mut()
            .add_rule(
                RuleDef::permit()
                    .subject_role(vocab.child)
                    .object_role(vocab.entertainment_device)
                    .when(vocab.free_time),
            )
            .unwrap();
        home.install_watchdog(WatchdogConfig::default());
        let bobby = home.person("bobby").unwrap().subject();
        let tv = home.device("tv").unwrap().object();
        assert!(home
            .request(bobby, vocab.operate, tv)
            .unwrap()
            .is_permitted());

        let server = home.serve_observability("127.0.0.1:0").unwrap();
        let (status, metrics) = grbac_obs::get(server.addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        if telemetry::ENABLED {
            assert!(metrics.contains("grbac_decisions_permit_total 1"));
        }
        let (status, health) = grbac_obs::get(server.addr(), "/health").unwrap();
        assert_eq!(status, 200);
        assert!(health.contains("\"watchdog_installed\":true"));
        // The scrape's tick advanced the same shared watchdog the home
        // ticks, proving /health and watchdog_tick share baselines.
        assert!(home.with_watchdog(|w| w.tick_count()).unwrap() >= 1);
        server.shutdown();

        // The home keeps mediating after the server is gone.
        assert!(home
            .request(bobby, vocab.operate, tv)
            .unwrap()
            .is_permitted());
    }

    /// Decisions take the engine read lock, so a reader (an
    /// observability scrape, say) never stalls mediation.
    #[test]
    fn request_does_not_wait_on_engine_readers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;

        let mut home = small_home();
        let vocab = *home.vocab();
        let bobby = home.person("bobby").unwrap().subject();
        let tv = home.device("tv").unwrap().object();
        let engine = home.engine_handle();
        let released = Arc::new(AtomicBool::new(false));
        let (held, holding) = mpsc::channel();
        let reader = {
            let released = Arc::clone(&released);
            std::thread::spawn(move || {
                let guard = engine.read().expect("engine lock");
                held.send(()).expect("test thread waits");
                std::thread::sleep(std::time::Duration::from_secs(2));
                released.store(true, Ordering::SeqCst);
                drop(guard);
            })
        };
        holding.recv().expect("reader holds the lock");
        home.request(bobby, vocab.operate, tv).unwrap();
        assert!(
            !released.load(Ordering::SeqCst),
            "request waited for the reader to release the engine"
        );
        reader.join().unwrap();
        assert_eq!(home.engine().audit().total_recorded(), 1);
    }

    #[test]
    fn clock_controls() {
        let mut home = small_home();
        let t0 = home.now();
        home.advance(Duration::minutes(5));
        assert_eq!(home.now(), t0 + Duration::minutes(5));
        assert!(!home.advance_to(t0), "cannot go backwards");
        assert!(home.advance_to(t0 + Duration::hours(1)));
    }
}
