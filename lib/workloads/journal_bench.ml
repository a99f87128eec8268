(* The flight-recorder bench gate (bench/main.exe journal, @ci-journal).

   Five properties pin the recorder's contract:

   1. Recording is invisible: the Table 3/4 anchor document regenerated
      with a journal writer attached to every bench machine is byte-
      identical to the plain one (emission never advances the virtual
      clock).
   2. Recording is lossless: a drugbank run's journal, replayed into a
      fresh emitter, reproduces the live machine's per-kind count and
      arg-sum exactly, for every kind.
   3. Recording is allocation-free: the steady-state record path costs
      exactly 0 minor words per event (seals excepted; the check uses a
      segment large enough that none occur inside the measured window).
   4. Diffing is sound: a journal diffed against itself reports zero
      deltas and no regressions, while a seeded slowdown (extra compute
      appended to the same workload body) is flagged past the default
      threshold.
   5. Recording is cheap: the recorded run's CPU time stays inside the
      same wall tolerance the bench gate applies, relative to the
      committed BENCH_sim.json suite wall.

   All scratch files live in the action's working directory (dune sandbox)
   and are removed on the way out. *)

module J = Obs.Journal

let chk = Bench_gate.chk
let rm path = try Sys.remove path with Sys_error _ -> ()

let anchors_check scratch =
  let w = J.Writer.create ~segment_bytes:(1 lsl 20) ~path:scratch () in
  let plain = Bench_gate.render_anchors () in
  let recorded =
    Bench_gate.render_anchors ~instrument:(fun obs -> J.Writer.attach w obs) ()
  in
  if not (J.Writer.closed w) then J.Writer.close w ~now:0;
  rm scratch;
  chk "journal/anchors-identical" (plain = recorded)
    (if plain = recorded then
       Printf.sprintf
         "Table 3/4 anchors byte-identical with recorder attached (%d events \
          journaled)"
         (J.Writer.events w)
     else "anchor document CHANGED with a journal writer attached")

(* Run [spec] under full Erebor with a journal writer on the machine's bus,
   recording to [path] (caller removes); returns the machine's counters. *)
let record ~path ~workload spec =
  let obs = Obs.Emitter.create () in
  let w =
    J.Writer.create
      ~meta:
        [
          ("workload", workload);
          ("setting", Sim.Config.name Sim.Config.Erebor_full);
        ]
      ~path ()
  in
  J.Writer.attach ~machine:"sim" w obs;
  let m = Sim.Machine.create ~obs ~setting:Sim.Config.Erebor_full () in
  ignore (Sim.Machine.run m spec);
  Obs.Emitter.finalize obs ~now:(Hw.Cycles.now (Sim.Machine.clock m));
  Sim.Machine.counters m

(* One recorded drugbank run: the live machine counters and the recording's
   CPU cost. *)
let recorded_run ~path () =
  let spec_fn = List.assoc "drugbank" Eval.all_programs in
  let cpu0 = Sys.time () in
  let live = record ~path ~workload:"drugbank" (spec_fn ()) in
  (live, Sys.time () -. cpu0)

let replay_check ~path live =
  let robs = Obs.Emitter.create () in
  let replayed = Obs.Counter.of_emitter robs in
  match
    J.fold ~path ~init:0 (fun n (e : J.event) ->
        Obs.Emitter.emit robs e.J.kind ~ts:e.J.ts ~arg:e.J.arg;
        n + 1)
  with
  | Result.Error e -> chk "journal/replay-counters" false e
  | Result.Ok (n, _) ->
      let mismatches =
        List.filter
          (fun k ->
            Obs.Counter.count live k <> Obs.Counter.count replayed k
            || Obs.Counter.arg_sum live k <> Obs.Counter.arg_sum replayed k)
          Obs.Trace.all
      in
      let live_total = Obs.Counter.total live in
      chk
        ~old_value:(Printf.sprintf "%d live events" live_total)
        ~new_value:(Printf.sprintf "%d replayed events" (Obs.Counter.total replayed))
        "journal/replay-counters" (mismatches = [])
        (if mismatches = [] then
           Printf.sprintf
             "replayed %d events: count and arg-sum equal for all %d kinds"
             n (List.length Obs.Trace.all)
         else
           "live/replay disagree on: "
           ^ String.concat ", " (List.map Obs.Trace.name mismatches))

let zero_alloc_check ~smoke scratch =
  let n = if smoke then 50_000 else 200_000 in
  (* A segment large enough that no seal (and thus no I/O or framing) falls
     inside the measured window — the property under test is the per-event
     record path. *)
  let w = J.Writer.create ~segment_bytes:(1 lsl 22) ~path:scratch () in
  let s = J.Writer.stream w ~machine:"alloc" in
  for i = 1 to 1024 do
    J.Writer.record w ~stream:s Obs.Trace.Page_fault ~ts:i ~arg:(i * 64)
  done;
  let check =
    Bench_gate.zero_alloc_check ~name:"journal/zero-alloc" ~n ~unit_:"event"
      ~what:"steady-state records" (fun i ->
        J.Writer.record w ~stream:s Obs.Trace.Page_fault ~ts:(1024 + i)
          ~arg:(i land 4095 * 64))
  in
  J.Writer.close w ~now:(1024 + n);
  rm scratch;
  check

let diff_checks ~rec_path ~slow_path =
  let self =
    match Obs.Diff.compare_files ~a:rec_path ~b:rec_path with
    | Result.Error e -> chk "journal/diff-self" false e
    | Result.Ok d ->
        let zero =
          List.for_all (fun (e : Obs.Diff.entry) -> e.Obs.Diff.delta = 0)
            d.Obs.Diff.entries
          && Obs.Diff.regressions d = []
        in
        chk ~old_value:(string_of_int d.Obs.Diff.total_a)
          ~new_value:(string_of_int d.Obs.Diff.total_b)
          "journal/diff-self" zero
          (if zero then
             Printf.sprintf "self-diff silent across %d phases"
               (List.length d.Obs.Diff.entries)
           else "self-diff reported nonzero deltas")
  in
  let seeded =
    match Obs.Diff.compare_files ~a:rec_path ~b:slow_path with
    | Result.Error e -> chk "journal/diff-regression" false e
    | Result.Ok d ->
        let regs = Obs.Diff.regressions ~threshold:5.0 ~min_cycles:1000 d in
        let hits_run =
          List.exists
            (fun (e : Obs.Diff.entry) -> e.Obs.Diff.ephase = Obs.Trace.Run)
            regs
        in
        chk
          ~old_value:(string_of_int d.Obs.Diff.total_a)
          ~new_value:(string_of_int d.Obs.Diff.total_b)
          "journal/diff-regression"
          (regs <> [] && hits_run)
          (if regs = [] then "seeded slowdown NOT flagged"
           else if not hits_run then
             "regression flagged, but not on the seeded user/run phase"
           else
             Printf.sprintf "seeded slowdown flagged (%d regressing phase(s))"
               (List.length regs))
  in
  [ self; seeded ]

(* Re-run the same workload with extra compute appended to its body — a
   deliberate user-phase regression sized off the baseline recording's own
   Run-phase self cycles, so the percentage is workload-independent. *)
let seeded_slow_run ~rec_path ~path () =
  let extra =
    match Obs.Diff.attribution ~path:rec_path with
    | Result.Ok (arr, _) ->
        let run_self, _ = arr.(Obs.Trace.phase_index Obs.Trace.Run) in
        max 1_000_000 (run_self / 4)
    | Result.Error _ -> 100_000_000
  in
  let spec = (List.assoc "drugbank" Eval.all_programs) () in
  let body ops =
    spec.Sim.Machine.body ops;
    ops.Sim.Machine.compute extra
  in
  ignore
    (record ~path ~workload:"drugbank+seeded-slowdown"
       { spec with Sim.Machine.body })

(* A missing or malformed baseline fails both checks that compare against
   it. *)
let baseline_checks ~baseline ~rec_path ~cpu =
  match Bench_gate.read_baseline baseline with
  | Result.Error e ->
      [ chk "journal/record-wall" false e; chk "journal/from-journal" false e ]
  | Result.Ok b ->
      let wall =
        match Bench_gate.Json.member "total_wall_s" b with
        | Some (Bench_gate.Json.Num base) ->
            Bench_gate.budget_check "journal/record-wall"
              ~what:"recorded run cpu" ~render:(Printf.sprintf "%.3fs")
              ~tolerance:1.5 ~base cpu
        | _ -> chk "journal/record-wall" false "baseline lacks total_wall_s"
      in
      wall :: Bench_gate.check_journal ~journal:rec_path b

let run ?(smoke = false) ?(baseline = "BENCH_sim.json") () =
  let rec_path = ".journal-bench.rec.ejrn" in
  let slow_path = ".journal-bench.slow.ejrn" in
  let scratch = ".journal-bench.scratch.ejrn" in
  let anchors = anchors_check scratch in
  let live, cpu = recorded_run ~path:rec_path () in
  let replay = replay_check ~path:rec_path live in
  let alloc = zero_alloc_check ~smoke scratch in
  seeded_slow_run ~rec_path ~path:slow_path ();
  let diffs = diff_checks ~rec_path ~slow_path in
  let against_baseline = baseline_checks ~baseline ~rec_path ~cpu in
  rm rec_path;
  rm slow_path;
  (anchors :: replay :: alloc :: diffs) @ against_baseline
