(** Live-SLO bench driver: multi-tenant request load with a seeded mid-run
    degradation, asserting that burn-rate alerts and health demotions fire
    for the degraded tenant and {e only} for it.

    One Erebor_full machine hosts N sealed tenants served round-robin
    through the real monitored request paths. Each tenant gets its own
    {!Obs.Window} and a latency SLO over it; a shared {!Obs.Health}
    watchdog tracks every tenant, and all transitions land on a dedicated
    telemetry emitter with a tamper-evident audit chain. Mid-run, one
    tenant's requests go silent for millions of virtual cycles (EMC stall +
    deadline overrun) and then complete with a latency far past the
    objective threshold. *)

type tenant_outcome = {
  tname : string;
  stalled : bool;  (** Whether this was the seeded-degradation target. *)
  served : int;
  alert_fired : bool;  (** The tenant's latency SLO fired at some point. *)
  final_state : Obs.Health.state;
  worst_state : Obs.Health.state;  (** Deepest demotion over the run. *)
  health_transitions : (int * Obs.Health.state) list;
}

type report = {
  outcomes : tenant_outcome list;
  evals : int;  (** SLO/watchdog evaluation ticks over the run. *)
  alert_events : int;  (** [Slo_alert] events on the telemetry bus. *)
  health_events : int;  (** [Health_transition] events on the bus. *)
  audit_records : int;
  audit_intact : bool;  (** The telemetry audit chain verified offline. *)
}

val run :
  ?backend:Erebor.Isolation.kind ->
  ?tenants:int ->
  ?rounds:int ->
  ?stall_tenant:int ->
  ?stall_rounds:int ->
  unit ->
  report
(** Defaults: 4 tenants, 40 rounds, tenant index 1 stalled for 4 rounds
    starting at the halfway point. Tenants are provisioned and served by
    {!Density.provision} / {!Density.serve}. Raises [Invalid_argument]
    when [tenants < 2] (no neighbour could show the alert stays confined)
    or [stall_tenant] is out of range. *)

val clean_fig9 :
  ?jobs:int -> ?smoke:bool -> unit -> (string * string list) list
(** Run Fig. 9 programs under full Erebor with the machine-level SLO set
    attached (the [run --dash] objectives) and return each program's fired
    objective names — which must all be empty: a healthy calibrated run
    never alarms. [smoke] cuts to the drugbank program. *)

val checks : report -> clean:(string * string list) list -> Bench_gate.verdict
(** The gate's named checks over a {!run} report and a {!clean_fig9}
    result: [slo/<tenant>/alert] and [slo/<tenant>/worst-state] for every
    tenant (the stalled one must fire and reach Unhealthy, the others must
    stay silent and Healthy), [slo/<tenant>/degraded-step] for the stalled
    one, [slo/bus/alerts], [slo/bus/health], [slo/audit-chain], and one
    [slo/clean/<program>] per clean run. *)
