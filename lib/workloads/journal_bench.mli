(** The flight-recorder bench gate ([bench/main.exe journal], @ci-journal).

    Pins {!Obs.Journal}'s contract with the calibrated simulator:

    - the Table 3/4 anchor document is byte-identical with a journal writer
      attached to every bench machine (recording never advances the
      virtual clock);
    - a recorded run replayed into a fresh emitter reproduces the live
      machine's {!Obs.Counter} exactly (per-kind count and arg-sum);
    - the steady-state record path allocates exactly 0 minor words per
      event;
    - {!Obs.Diff} of a journal against itself is silent, while a seeded
      slowdown run is flagged past the default regression threshold;
    - the recorded run's CPU time stays inside the bench gate's wall
      tolerance relative to the committed [BENCH_sim.json] suite wall, and
      {!Bench_gate.check_journal} verifies the recording against the
      baseline's Fig. 9 row. *)

val run :
  ?smoke:bool -> ?baseline:string -> unit -> Bench_gate.verdict
(** Run every check; [smoke] (default false) shrinks the allocation-check
    iteration count for the @ci cut, [baseline] (default
    ["BENCH_sim.json"]) locates the committed suite record used by the
    wall and Fig. 9 comparisons. *)
