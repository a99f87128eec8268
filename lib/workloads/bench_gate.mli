(** Regression gate against a committed [BENCH_sim.json] baseline.

    The gate regenerates the calibrated anchors from the current build and
    diffs them against the baseline: Table 3 transition cycles and Table 4
    privop cycles must match {e exactly} (they are deterministic functions
    of simulator mechanics), while wall time and GC pressure are only
    bounded within a generous tolerance so the gate never flakes on a slow
    CI host. With [~fig9:true] the Fig. 9 overhead/rate columns are also
    compared at their reported precision (%.4f / %.2f).

    The gate also pins the isolation backend the anchors were calibrated
    under: the default {!Erebor.Isolation} install must still be PKS, and a
    machine with the backend forced to PKS must reproduce the default
    Table 3/4 anchors exactly (checks [backend/default],
    [backend/table3-pks/*], [backend/table4-pks/*]). *)

(** Dependency-free JSON subset used to read the baseline. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  (** Parse a complete JSON document; [Error] carries a message with the
      byte offset of the failure. *)

  val member : string -> t -> t option
end

type check = {
  name : string;
  ok : bool;
  detail : string;
  old_value : string option;
      (** The baseline ("old") side of the comparison, rendered at the
          precision the gate compared at; [None] when the check has no
          comparable pair (parse errors, coverage gaps). *)
  new_value : string option;  (** The regenerated ("new") side. *)
}
(** One comparison: a stable dotted name ([table3/EMC.cycles], [wall], ...),
    whether it held, a human-readable detail line, and — when the check
    compares two values — the old/new pair for tabular rendering. *)

type verdict = check list

val pass : verdict -> bool
val failures : verdict -> check list
val pp_verdict : Format.formatter -> verdict -> unit

val pp_mismatch_table : Format.formatter -> verdict -> unit
(** Render {e every} failing check of [verdict] as a unified old/new table
    (baseline value vs regenerated value), so one run shows the complete
    set of drifted anchors. Prints nothing when the verdict passes. *)

val check_string :
  ?fig9:bool ->
  ?wall_tolerance:float ->
  ?gc_tolerance:float ->
  string ->
  (verdict, string) result
(** Parse a baseline document and run the gate against it; [Error] on
    malformed JSON. [wall_tolerance] (default 1.5) bounds the regeneration
    CPU time at that multiple of the baseline's [total_wall_s];
    [gc_tolerance] (default 0.5) bounds minor and major allocation at that
    multiple of the baseline suite's [gc.minor_words] / [gc.major_words].
    The budgets cover (a fraction of) a full suite while the gate
    regenerates only anchors, so they catch order-of-magnitude regressions
    without noise. Everything the gate regenerates, the [fig9] rows
    included, runs on the calling domain: OCaml 5's [Gc] counters are per
    domain, and words allocated by pool workers would escape the GC
    budgets. *)

val check_file :
  ?fig9:bool ->
  ?wall_tolerance:float ->
  ?gc_tolerance:float ->
  path:string ->
  unit ->
  (verdict, string) result
(** {!check_string} on the baseline file at [path]. *)

val check_journal : journal:string -> Json.t -> verdict
(** Verify a flight recording ({!Obs.Journal}) written by
    [erebor-sim run --record] against an already-parsed baseline: the
    journal must be finalized, contain a complete Run span for the
    (workload, setting) named in its header, and the exit rates recomputed
    from the Run-span slice must match the baseline's Fig. 9 row for that
    pair at the reported %.2f precision. The rate math reproduces
    [Sim.Stats.diff] exactly, so an undisturbed recording matches to the
    last digit. *)

val check_journal_file :
  journal:string -> path:string -> unit -> (verdict, string) result
(** [check_journal] against the baseline JSON at [path] — the engine behind
    [bench check --from-journal FILE]. *)

val read_baseline : string -> (Json.t, string) result
(** Read and parse the baseline file at a path. *)

val render_anchors : ?instrument:(Obs.Emitter.t -> unit) -> unit -> string
(** A minimal baseline document (schema + exact Table 3 / Table 4 anchors)
    regenerated from the current build. Tests use this to construct a
    passing baseline — and to seed a mismatch that must make the gate
    fail. [?instrument] is threaded to {!Eval.table3}/{!Eval.table4}; the
    rendered document must be byte-identical with or without sinks
    attached (observability never advances the virtual clock). *)

(** {2 Checks of the experiment gates ([bench attrib], [bench density])} *)

val attrib_checks : Eval.attrib_row list -> verdict
(** One [attrib/<program>:<setting>/conservation] check per row: the
    per-context cycles plus [unattributed_cycles] must sum exactly to
    [total_cycles]. *)

val nearest_rank : int array -> p:float -> int
(** The rank-[ceil (p * n)] element of a sorted array, [p] in [\[0, 1\]];
    [0] for an empty array. The exact percentile oracle of the density
    gate. *)

(** {2 Checks shared by the gates} *)

val chk :
  ?old_value:string -> ?new_value:string -> string -> bool -> string -> check

val budget_check :
  string -> what:string -> render:(float -> string) -> tolerance:float ->
  base:float -> float -> check
(** [budget_check name ~what ~render ~tolerance ~base measured]: a host
    cost ([measured], rendered with [render]) within [tolerance] times the
    baseline suite's figure [base]. *)

val zero_alloc_check :
  name:string -> n:int -> unit_:string -> what:string -> (int -> unit) ->
  check
(** Exactly 0 minor words over [record 0 .. record (n-1)] (warm it up
    first), calibrated for the cost of reading [Gc.minor_words]. *)
