(* The benchmark's own tests: seeded inputs, determinism of the modelled
   metrics, stable metric names, the output checks, and the tracer's
   zero-allocation, conserving stamps.

   Run with: dune build @perfbench/perfbench-test *)

open Perfbench

let out_dir =
  let d = "perfbench-test-out" in
  if not (Sys.file_exists d) then Sys.mkdir d 0o755;
  d

let run ~workload ~seed ~trace =
  Bench.run { Bench.workload; seed; seconds = 0.01; trace; out_dir }

let value (r : Bench.result) name =
  match List.find_opt (fun (x : Bench.metric) -> x.name = name) r.metrics with
  | Some x -> x.value
  | None -> Alcotest.failf "metric %s missing" name

let names (r : Bench.result) = List.map (fun (x : Bench.metric) -> x.Bench.name) r.metrics

(* Metrics that depend on the seed's inputs only, never on the host. *)
let deterministic =
  [
    "erebor.emc"; "erebor.emc_mmu"; "kernel.page_faults"; "kernel.syscalls"; "kernel.timer_irqs";
    "kernel.ctx_switches"; "tdx.ve_exits"; "hw.tlb_hit_pct"; "hw.backed_mb"; "obs.events";
    "erebor.channel_kb"; "vcyc.user"; "vcyc.kernel"; "vcyc.monitor"; "vcyc.host";
    "sess_vms_p50"; "sess_vms_p90"; "obs.sink.calls"; "kernel.pf.calls"; "crypto.attest.calls";
  ]

let test_payloads () =
  let a = Work.serve_payloads ~seed:7 Work.serve_sessions in
  let b = Work.serve_payloads ~seed:7 Work.serve_sessions in
  let c = Work.serve_payloads ~seed:8 Work.serve_sessions in
  Alcotest.(check bool) "same seed, same payloads" true (Array.for_all2 Bytes.equal a b);
  Alcotest.(check bool) "new seed, new payloads" false (Array.for_all2 Bytes.equal a c);
  Array.iter
    (fun p ->
      let n = Bytes.length p in
      if n < 256 || n > 1 lsl 20 then Alcotest.failf "payload of %d bytes out of range" n)
    a;
  (* One payload per log band: sorted, the i-th lies in band i. *)
  let sizes = Array.map Bytes.length a in
  Array.sort compare sizes;
  let width = 12.0 /. float_of_int Work.serve_sessions in
  Array.iteri
    (fun i n ->
      let band = int_of_float ((Float.log2 (float_of_int n) -. 8.0) /. width) in
      if band <> i && not (band = i + 1 && n = 1 lsl 20) then
        Alcotest.failf "payload %d (%d bytes) is in band %d" i n band)
    sizes

let test_seed_determinism () =
  let r1 = run ~workload:Bench.Serve ~seed:7 ~trace:true in
  let r2 = run ~workload:Bench.Serve ~seed:7 ~trace:true in
  let r3 = run ~workload:Bench.Serve ~seed:8 ~trace:true in
  List.iter
    (fun (r : Bench.result) ->
      Alcotest.(check int) "no failed operation" 0 r.failed;
      Alcotest.(check (list string)) "no failed check" [] r.problems)
    [ r1; r2; r3 ];
  List.iter
    (fun n -> Alcotest.(check (float 0.0)) ("same seed: " ^ n) (value r1 n) (value r2 n))
    deterministic;
  Alcotest.(check string) "same seed, same fingerprint" r1.fingerprint r2.fingerprint;
  Alcotest.(check bool) "new seed, new fingerprint" false (r1.fingerprint = r3.fingerprint);
  Alcotest.(check bool) "new seed, new channel bytes" false
    (value r1 "erebor.channel_kb" = value r3 "erebor.channel_kb");
  Alcotest.(check (list string)) "new seed, same metric names" (names r1) (names r3)

let test_end_to_end_names () =
  let r1 = run ~workload:Bench.Memshare ~seed:7 ~trace:false in
  let r2 = run ~workload:Bench.Memshare ~seed:9 ~trace:false in
  Alcotest.(check (list string)) "end-to-end names"
    [ "pass_s"; "setup_s"; "sess_ms_p50"; "sess_ms_p90"; "alloc_mwords"; "major_mwords"; "peak_rss_mb" ]
    (names r1);
  Alcotest.(check (list string)) "same names for a new seed" (names r1) (names r2);
  List.iter
    (fun (x : Bench.metric) ->
      if not (x.value > 0.0) then Alcotest.failf "%s = %g is not positive" x.name x.value)
    r1.metrics

let test_trace_instruments_keep_model () =
  let untraced = run ~workload:Bench.Memshare ~seed:1 ~trace:false in
  let traced = run ~workload:Bench.Memshare ~seed:1 ~trace:true in
  Alcotest.(check string) "tracing leaves the modelled values alone" untraced.fingerprint
    traced.fingerprint;
  Alcotest.(check (float 1e-9)) "saving" 77.963889 (Float.round (value traced "memshare.saving_pct" *. 1e6) /. 1e6);
  let layer_calls = value traced "kernel.pf.calls" in
  Alcotest.(check bool) "page faults traced" true (layer_calls > 500_000.0)

let test_fig9_fidelity () =
  let p = Work.fig9_pass (Work.bare ()) in
  Alcotest.(check int) "25 cells" 25 (Array.length p.ops);
  Array.iter (fun (o : Work.op) -> Alcotest.(check bool) "cell ok" true o.op_ok) p.ops;
  let err = List.assoc "fig9_err_pp" p.model in
  if Float.abs (err -. 1.3714) > 0.001 then Alcotest.failf "fig9_err_pp = %g" err

let test_output_checks () =
  let ok output_len wire_len = Work.wire_ok ~output_len ~wire_len in
  Alcotest.(check bool) "padded to one bucket" true (ok 40 (Work.sealed_overhead + 512));
  Alcotest.(check bool) "two buckets" true (ok 600 (Work.sealed_overhead + 1024));
  Alcotest.(check bool) "unpadded" false (ok 40 (Work.sealed_overhead + 48));
  Alcotest.(check bool) "one bucket too many" false (ok 40 (Work.sealed_overhead + 1024));
  let input = Bytes.make 1500 'x' in
  let expected = Work.serve_expected input in
  Alcotest.(check int) "digest + echo" (32 + (1500 mod 1024)) (Bytes.length expected)

let test_tracer_stamps () =
  let t = Tracer.create ~log_capacity:16 () in
  let sink = Tracer.sink t in
  let b = Obs.Trace.span_begin Obs.Trace.Emc_gate and e = Obs.Trace.span_end Obs.Trace.Emc_gate in
  let b2 = Obs.Trace.span_begin Obs.Trace.Svc_mmu and e2 = Obs.Trace.span_end Obs.Trace.Svc_mmu in
  let go n =
    for _ = 1 to n do
      sink b ~ts:0 ~arg:0;
      sink b2 ~ts:0 ~arg:0;
      sink e2 ~ts:0 ~arg:0;
      sink e ~ts:0 ~arg:0
    done
  in
  go 100;
  Tracer.reset t;
  let t0 = Tracer.now_ns () in
  let w0 = Gc.minor_words () in
  go 10_000;
  let w1 = Gc.minor_words () in
  Tracer.stamp t;
  let t1 = Tracer.now_ns () in
  Alcotest.(check (float 0.0)) "stamping allocates nothing" 0.0 (w1 -. w0);
  Alcotest.(check int) "gate entered" 10_000 t.Tracer.calls.(Layers.erebor_gate);
  Alcotest.(check int) "service entered" 10_000 t.Tracer.calls.(Layers.erebor_svc);
  Alcotest.(check int) "balanced" 0 t.Tracer.mismatched;
  let total = Tracer.total_ns t in
  if total > t1 - t0 + 1000 || total <= 0 then
    Alcotest.failf "layer times sum to %d ns over a %d ns interval" total (t1 - t0);
  (* An unmatched end is counted, not hidden. *)
  sink e ~ts:0 ~arg:0;
  Alcotest.(check int) "mismatch counted" 1 t.Tracer.mismatched

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "seeded payloads" `Quick test_payloads;
          Alcotest.test_case "output checks" `Quick test_output_checks;
        ] );
      ("tracer", [ Alcotest.test_case "zero-allocation conserving stamps" `Quick test_tracer_stamps ]);
      ( "runs",
        [
          Alcotest.test_case "seed determinism and stable names" `Slow test_seed_determinism;
          Alcotest.test_case "end-to-end names" `Slow test_end_to_end_names;
          Alcotest.test_case "tracing keeps the model" `Slow test_trace_instruments_keep_model;
          Alcotest.test_case "fig9 fidelity" `Slow test_fig9_fidelity;
        ] );
    ]
