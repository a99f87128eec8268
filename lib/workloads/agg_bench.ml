(* The fleet-telemetry bench gate (bench/main.exe agg, @ci-agg).

   Pins the aggregator's contract end to end:

   1. Telemetry is invisible: the Table 3/4 anchor document regenerated
      with a sketch family and an aggregator part attached to every bench
      machine is byte-identical to the plain one, and a Fig. 9 workload
      run (drugbank under full Erebor) reports the same cycles and exit
      statistics with fleet telemetry attached.
   2. Merged percentiles are honest: fleet quantiles from merged
      per-machine sketches stay within the sketch's relative-error bound
      of the exact sort oracle, both on a large adversarial synthetic
      stream and on the real latencies of a simulated fleet run.
   3. Aggregation is order-invariant: the merged snapshot serializes to
      the same bytes for any merge order or grouping and for any
      Sim.Runner --jobs width (parallelism never changes results).
   4. The record path is free: one fleet record (sketch + heavy-hitter
      hit + exemplar challenge) costs exactly 0 minor words in steady
      state.
   5. A seeded tail-latency spike is attributable: the spiked tenant
      ranks first in the merged heavy hitters with sound count bounds,
      and the fleet p99 exemplar carries the spike's trace id plus a
      journal frame offset that resolves to events recorded inside that
      exact request's window.

   All scratch files live in the action's working directory (dune
   sandbox) and are removed on the way out. *)

module A = Obs.Agg
module J = Obs.Journal

let chk = Bench_gate.chk

(* Deterministic LCG so every check is reproducible run to run. *)
let lcg seed =
  let s = ref seed in
  fun m ->
    s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
    !s mod m

(* ------------------------------------------------------------------ *)
(* 1. Telemetry is invisible                                           *)
(* ------------------------------------------------------------------ *)

let anchors_check () =
  let fam = Obs.Sketch.Family.create () in
  let part = A.part ~machine:"gate" () in
  Bench_gate.anchors_check ~name:"agg/anchors-identical"
    ~sink:"sketch family + aggregator" ~changed:"fleet telemetry"
    ~instrument:(fun obs ->
      ignore (Obs.Sketch.Family.attach obs fam);
      ignore (A.attach obs part))
    ~observed:(fun () ->
      Printf.sprintf "%d events observed" (Obs.Counter.total (A.counters part)))

let fig9_check () =
  let spec_fn = List.assoc "drugbank" Eval.all_programs in
  let run_one ~telemetry =
    let obs = Obs.Emitter.create () in
    if telemetry then begin
      ignore (A.attach obs (A.part ~machine:"fig9" ()));
      ignore (Obs.Sketch.Family.attach obs (Obs.Sketch.Family.create ()))
    end;
    let m = Sim.Machine.create ~obs ~setting:Sim.Config.Erebor_full () in
    let r = Sim.Machine.run m (spec_fn ()) in
    (r.Sim.Machine.init_cycles, r.Sim.Machine.run_cycles, Sim.Machine.snapshot m)
  in
  let i0, r0, s0 = run_one ~telemetry:false in
  let i1, r1, s1 = run_one ~telemetry:true in
  let ok = i0 = i1 && r0 = r1 && s0 = s1 in
  chk
    ~old_value:(Printf.sprintf "%d run cycles plain" r0)
    ~new_value:(Printf.sprintf "%d run cycles instrumented" r1)
    "agg/fig9-undisturbed" ok
    (if ok then
       "drugbank under full Erebor: cycles and exit statistics identical \
        with fleet telemetry attached"
     else "Fig. 9 workload DISTURBED by fleet telemetry")

(* ------------------------------------------------------------------ *)
(* 2. Merged percentiles vs the exact sort oracle                      *)
(* ------------------------------------------------------------------ *)

(* Every quantile in [ps] of the merged sketch within the relative-error
   bound of the exact nearest-rank value of [values]. *)
let accuracy name ~ps merged values detail =
  let alpha = A.alpha merged in
  let sorted = Array.copy values in
  Array.sort compare sorted;
  let worst = ref 0.0 in
  let ok =
    List.for_all
      (fun p ->
        let exact = Bench_gate.nearest_rank sorted ~p in
        let est = A.quantile merged ~p in
        let err = float_of_int (abs (est - exact)) in
        let bound = (alpha *. float_of_int exact) +. 1.0 in
        let rel = if exact = 0 then 0.0 else err /. float_of_int exact in
        if rel > !worst then worst := rel;
        err <= bound)
      ps
  in
  chk
    ~old_value:(Printf.sprintf "bound %.2f%%" (100.0 *. alpha))
    ~new_value:(Printf.sprintf "worst %.3f%%" (100.0 *. !worst))
    name ok detail

let accuracy_check ~smoke =
  let n = if smoke then 20_000 else 100_000 in
  let rand = lcg 0x5EED in
  (* Heavy-tailed: exponents span 8 decades, the distribution DDSketch's
     relative (not absolute) error bound exists for. *)
  let values =
    Array.init n (fun _ ->
        let base = int_of_float (10.0 ** float_of_int (rand 8)) in
        base + rand (max 1 base))
  in
  let parts =
    Array.init 5 (fun i -> A.part ~machine:(Printf.sprintf "acc%d" i) ())
  in
  let tens = Array.map (fun p -> A.tenant p "oracle") parts in
  Array.iteri
    (fun i v ->
      A.record parts.(i mod 5) tens.(i mod 5) Obs.Trace.Req_end ~latency:v
        ~trace_id:i ~offset:(-1) ~ts:i)
    values;
  let merged = A.merge_all (Array.to_list (Array.map A.seal parts)) in
  accuracy "agg/accuracy-oracle" ~ps:[ 0.50; 0.90; 0.95; 0.99; 0.999 ] merged
    values
    (Printf.sprintf
       "%d heavy-tailed samples over 5 merged parts: p50/p90/p95/p99/p999 \
        within the relative-error bound of the exact sort oracle"
       n)

(* ------------------------------------------------------------------ *)
(* 3 + 5. A simulated fleet over Sim.Runner                            *)
(* ------------------------------------------------------------------ *)

type req = {
  q_trace : int;
  q_latency : int;
  q_tenant : string;
  q_offset : int;
  q_ts0 : int;  (* clock before the session ran *)
  q_ts1 : int;  (* clock after *)
}

let tenant_names = [| "acme"; "globex"; "initech" |]

(* One short sandboxed session; compute varies per (machine, session) so
   the fleet latency distribution is non-trivial. *)
let session_spec ~name ~compute () =
  {
    Sim.Machine.name;
    sandboxed = true;
    timer_hz = 0;
    init_compute = 0;
    confined_bytes = 16 * 4096;
    nominal_confined_mb = 1;
    common = None;
    threads = 1;
    contention = 0.0;
    input = Bytes.make 64 'q';
    output_bucket = 64;
    body =
      (fun ops ->
        ops.Sim.Machine.compute compute;
        ops.Sim.Machine.touch_confined ~page:1;
        ops.Sim.Machine.service ());
  }

(* One fleet machine: boot under full Erebor, serve [sessions] sandboxed
   sessions (tenant "acme" takes every even slot, so it dominates the
   heavy hitters by construction), record each completed request into the
   machine's aggregator part. Machine 0 also journals its event stream
   and seeds one tail-latency spike for acme; its requests carry real
   journal frame offsets. Self-contained, so Sim.Runner may run machines
   on any domain in any order. *)
let run_machine ~sessions ~journal (idx, mname) =
  let obs = Obs.Emitter.create () in
  let part = A.part ~machine:mname () in
  ignore (A.attach obs part);
  let w =
    if idx = 0 then begin
      let w = J.Writer.create ~segment_bytes:8192 ~path:journal () in
      J.Writer.attach ~machine:mname w obs;
      Some w
    end
    else None
  in
  let m = Sim.Machine.create ~obs ~setting:Sim.Config.Erebor_full () in
  let clock = Sim.Machine.clock m in
  let rand = lcg (0xF1EE7 + (idx * 7919)) in
  let reqs = ref [] in
  for s = 0 to sessions - 1 do
    let tenant_name =
      if s mod 2 = 0 then tenant_names.(0)
      else tenant_names.(1 + (s / 2 mod 2))
    in
    let spike = idx = 0 && s = sessions - 2 in
    (* the seeded spike: two orders of magnitude more compute *)
    let compute = if spike then 40_000_000 else 200_000 + rand 200_000 in
    let tn = A.tenant part tenant_name in
    (* Frame offset of the request about to run — read BEFORE recording,
       the request's own events may seal the open segment. *)
    let off = match w with Some w -> J.Writer.offset w | None -> -1 in
    let ts0 = Hw.Cycles.now clock in
    let r =
      Sim.Machine.run m
        (session_spec ~name:(Printf.sprintf "fleet-%d-%d" idx s) ~compute ())
    in
    let ts1 = Hw.Cycles.now clock in
    let trace_id = (idx * 10_000) + s in
    A.record part tn Obs.Trace.Req_end ~latency:r.Sim.Machine.run_cycles
      ~trace_id ~offset:off ~ts:ts1;
    reqs :=
      {
        q_trace = trace_id;
        q_latency = r.Sim.Machine.run_cycles;
        q_tenant = tenant_name;
        q_offset = off;
        q_ts0 = ts0;
        q_ts1 = ts1;
      }
      :: !reqs
  done;
  Obs.Emitter.finalize obs ~now:(Hw.Cycles.now clock);
  (match w with
  | Some w when not (J.Writer.closed w) ->
      J.Writer.close w ~now:(Hw.Cycles.now clock)
  | _ -> ());
  (A.seal part, List.rev !reqs)

let fleet_pass ~smoke ~jobs ~journal () =
  let n_machines = if smoke then 3 else 4 in
  let sessions = if smoke then 6 else 10 in
  let tasks = Array.init n_machines (fun i -> (i, Printf.sprintf "m%d" i)) in
  let out = Sim.Runner.map ~jobs (run_machine ~sessions ~journal) tasks in
  let seals = Array.map fst out in
  let reqs = Array.to_list out |> List.concat_map snd in
  (seals, reqs)

let rotate l = match l with [] -> [] | x :: xs -> xs @ [ x ]

let invariance_checks ~seals1 ~seals2 =
  let bytes seals order =
    A.serialize (A.merge_all (order (Array.to_list seals)))
  in
  let reference = bytes seals2 Fun.id in
  let jobs_ok = bytes seals1 Fun.id = reference in
  let orders_ok =
    bytes seals2 List.rev = reference
    && bytes seals2 rotate = reference
    && A.render (A.merge_all (List.rev (Array.to_list seals2)))
       = A.render (A.merge_all (Array.to_list seals2))
  in
  [
    chk "agg/jobs-invariance" jobs_ok
      (if jobs_ok then
         Printf.sprintf
           "merged snapshot byte-identical for --jobs 1 and parallel \
            Sim.Runner schedules (%d bytes)"
           (String.length reference)
       else "merged snapshot DIFFERS across --jobs widths");
    chk "agg/merge-invariance" orders_ok
      (if orders_ok then
         "serialize and render byte-identical for reversed and rotated \
          merge orders"
       else "merge order CHANGED the merged snapshot");
  ]

let fleet_accuracy_check merged reqs =
  let values = Array.of_list (List.map (fun q -> q.q_latency) reqs) in
  accuracy "agg/fleet-accuracy" ~ps:[ 0.50; 0.95; 0.99 ] merged values
    (Printf.sprintf
       "fleet p50/p95/p99 over %d simulated requests within the \
        relative-error bound of the exact sort oracle"
       (Array.length values))

let spike_checks ~journal merged reqs =
  let exact_of tenant =
    List.length (List.filter (fun q -> q.q_tenant = tenant) reqs)
  in
  let topk =
    match A.top ~n:1 merged with
    | [ r ] ->
        let key = tenant_names.(0) ^ "/" ^ Obs.Trace.name Obs.Trace.Req_end in
        let exact = exact_of tenant_names.(0) in
        let ok =
          r.Obs.Topk.rkey = key
          && r.Obs.Topk.lower <= exact
          && exact <= r.Obs.Topk.upper
        in
        chk
          ~old_value:(Printf.sprintf "%d exact" exact)
          ~new_value:
            (Printf.sprintf "[%d, %d] bounds" r.Obs.Topk.lower r.Obs.Topk.upper)
          "agg/topk-spike" ok
          (if ok then
             Printf.sprintf
               "heavy hitters rank the spiked tenant first (%s, count %d)"
               r.Obs.Topk.rkey r.Obs.Topk.rcount
           else
             Printf.sprintf "top heavy hitter is %s, bounds [%d, %d]"
               r.Obs.Topk.rkey r.Obs.Topk.lower r.Obs.Topk.upper)
    | _ -> chk "agg/topk-spike" false "merged summary has no heavy hitter"
  in
  let exemplar =
    match A.exemplar_for merged ~p:0.99 with
    | None -> chk "agg/exemplar-resolves" false "no p99 exemplar in the fleet"
    | Some e -> (
        match
          List.find_opt (fun q -> q.q_trace = e.Obs.Exemplar.i_trace_id) reqs
        with
        | None ->
            chk "agg/exemplar-resolves" false
              (Printf.sprintf "p99 exemplar trace %#x matches no recorded \
                               request" e.Obs.Exemplar.i_trace_id)
        | Some q -> (
            let slowest =
              List.fold_left (fun acc r -> max acc r.q_latency) 0 reqs
            in
            let identity_ok =
              q.q_latency = slowest
              && e.Obs.Exemplar.i_machine = "m0"
              && e.Obs.Exemplar.i_offset = q.q_offset
              && e.Obs.Exemplar.i_offset >= 0
            in
            match
              J.fold ~path:journal ~init:(0, 0) (fun (in_frame, in_window) ev ->
                  if ev.J.off = e.Obs.Exemplar.i_offset then
                    ( in_frame + 1,
                      if ev.J.ts >= q.q_ts0 && ev.J.ts <= q.q_ts1 then
                        in_window + 1
                      else in_window )
                  else (in_frame, in_window))
            with
            | Result.Error err -> chk "agg/exemplar-resolves" false err
            | Result.Ok ((in_frame, in_window), _) ->
                let ok = identity_ok && in_frame > 0 && in_window > 0 in
                chk
                  ~old_value:
                    (Printf.sprintf "trace %#x offset %d" q.q_trace q.q_offset)
                  ~new_value:
                    (Printf.sprintf "trace %#x offset %d"
                       e.Obs.Exemplar.i_trace_id e.Obs.Exemplar.i_offset)
                  "agg/exemplar-resolves" ok
                  (if ok then
                     Printf.sprintf
                       "p99 exemplar is the seeded spike; its journal frame \
                        holds %d events, %d inside the request window"
                       in_frame in_window
                   else if not identity_ok then
                     "p99 exemplar does not identify the seeded spike"
                   else "exemplar offset resolved to no in-window events")))
  in
  [ topk; exemplar ]

(* ------------------------------------------------------------------ *)
(* 4. The record path is free                                          *)
(* ------------------------------------------------------------------ *)

let zero_alloc_check ~smoke =
  let n = if smoke then 50_000 else 200_000 in
  let p = A.part ~machine:"alloc" () in
  let t = A.tenant p "tenant-0" in
  for i = 1 to 4096 do
    A.record p t Obs.Trace.Req_end
      ~latency:(1 + (i land 4095))
      ~trace_id:i ~offset:(i * 64) ~ts:i
  done;
  Bench_gate.zero_alloc_check ~name:"agg/zero-alloc" ~n ~unit_:"record"
    ~what:
      "steady-state fleet records (sketch + heavy-hitter + exemplar)"
    (fun i ->
      A.record p t Obs.Trace.Req_end
        ~latency:(1 + (i land 4095))
        ~trace_id:i ~offset:(i land 0xFFFF) ~ts:i)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ?(smoke = false) () =
  let j1 = ".agg-bench.jobs1.ejrn" in
  let j2 = ".agg-bench.jobsN.ejrn" in
  let anchors = anchors_check () in
  let fig9 = fig9_check () in
  let accuracy = accuracy_check ~smoke in
  let alloc = zero_alloc_check ~smoke in
  let seals1, _ = fleet_pass ~smoke ~jobs:1 ~journal:j1 () in
  let njobs = max 2 (min 4 (Sim.Runner.default_jobs ())) in
  let seals2, reqs = fleet_pass ~smoke ~jobs:njobs ~journal:j2 () in
  let merged = A.merge_all (Array.to_list seals2) in
  let invariance = invariance_checks ~seals1 ~seals2 in
  let fleet_acc = fleet_accuracy_check merged reqs in
  let spikes = spike_checks ~journal:j2 merged reqs in
  Bench_gate.rm j1;
  Bench_gate.rm j2;
  (anchors :: fig9 :: accuracy :: fleet_acc :: invariance) @ spikes @ [ alloc ]
