(* Tests for the workload algorithms (the real compute kernels) and the
   profile-driven spec builder. *)

let rng () = Crypto.Drbg.create ~seed:"workload tests"

(* ------------------------------------------------------------------ *)
(* LLM                                                                 *)
(* ------------------------------------------------------------------ *)

let test_llm_train_generate () =
  let model = Workloads.Llm.Model.train ~order:3 "abcabcabcabcabcabc" in
  Alcotest.(check bool) "has contexts" true (Workloads.Llm.Model.contexts model > 0);
  let text = Workloads.Llm.Model.generate model ~rng:(rng ()) ~prompt:"abc" ~n:12 in
  Alcotest.(check int) "length" 12 (String.length text);
  (* A purely periodic corpus generates the same period. *)
  String.iter (fun c -> if not (String.contains "abc" c) then Alcotest.fail "off-alphabet") text

let test_llm_deterministic_given_rng () =
  let model = Workloads.Llm.default_model in
  let a = Workloads.Llm.Model.generate model ~rng:(Crypto.Drbg.create ~seed:"x") ~prompt:"the " ~n:50 in
  let b = Workloads.Llm.Model.generate model ~rng:(Crypto.Drbg.create ~seed:"x") ~prompt:"the " ~n:50 in
  Alcotest.(check string) "deterministic" a b

let test_llm_rejects_bad_order () =
  Alcotest.check_raises "order 0" (Invalid_argument "Model.train: order must be >= 1")
    (fun () -> ignore (Workloads.Llm.Model.train ~order:0 "xyz"))

(* ------------------------------------------------------------------ *)
(* Retrieval hashmap                                                   *)
(* ------------------------------------------------------------------ *)

let test_hashmap_basic () =
  let h = Workloads.Retrieval.Hashmap.create ~capacity:64 in
  Workloads.Retrieval.Hashmap.put h "a" 1;
  Workloads.Retrieval.Hashmap.put h "b" 2;
  Workloads.Retrieval.Hashmap.put h "a" 3;
  Alcotest.(check (option int)) "get a" (Some 3) (Workloads.Retrieval.Hashmap.get h "a");
  Alcotest.(check (option int)) "get b" (Some 2) (Workloads.Retrieval.Hashmap.get h "b");
  Alcotest.(check (option int)) "miss" None (Workloads.Retrieval.Hashmap.get h "c");
  Alcotest.(check int) "length counts keys" 2 (Workloads.Retrieval.Hashmap.length h);
  Alcotest.(check bool) "probes counted" true (Workloads.Retrieval.Hashmap.probes h > 0)

let test_hashmap_rejects () =
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Hashmap.create: capacity must be a power of two") (fun () ->
      ignore (Workloads.Retrieval.Hashmap.create ~capacity:100))

let prop_hashmap_model =
  QCheck.Test.make ~name:"hashmap agrees with assoc list" ~count:100
    QCheck.(list (pair (string_of_size QCheck.Gen.(1 -- 8)) small_int))
    (fun kvs ->
      let kvs = List.filteri (fun i _ -> i < 40) kvs in
      let h = Workloads.Retrieval.Hashmap.create ~capacity:256 in
      List.iter (fun (k, v) -> Workloads.Retrieval.Hashmap.put h k v) kvs;
      List.for_all
        (fun (k, _) ->
          (* last binding wins, as in the map *)
          let expected = List.assoc k (List.rev kvs) in
          Workloads.Retrieval.Hashmap.get h k = Some expected)
        kvs)

let test_synthetic_db () =
  let db = Workloads.Retrieval.synthetic_db ~rng:(rng ()) ~entries:500 in
  Alcotest.(check int) "all inserted" 500 (Workloads.Retrieval.Hashmap.length db);
  match Workloads.Retrieval.Hashmap.get db (Workloads.Retrieval.drug_key 123) with
  | Some r -> Alcotest.(check string) "name" "compound-123" r.Workloads.Retrieval.name
  | None -> Alcotest.fail "missing record"

(* ------------------------------------------------------------------ *)
(* Graph / PageRank                                                    *)
(* ------------------------------------------------------------------ *)

let test_csr_structure () =
  let g = Workloads.Graph.Csr.of_edges ~nodes:4 [ (0, 1); (0, 2); (1, 2); (3, 0); (9, 1) ] in
  Alcotest.(check int) "nodes" 4 (Workloads.Graph.Csr.nodes g);
  Alcotest.(check int) "edges (oob dropped)" 4 (Workloads.Graph.Csr.edges g);
  Alcotest.(check int) "deg 0" 2 (Workloads.Graph.Csr.out_degree g 0);
  Alcotest.(check int) "deg 2 (sink)" 0 (Workloads.Graph.Csr.out_degree g 2)

let test_pagerank_properties () =
  let g = Workloads.Graph.Csr.synthetic ~rng:(rng ()) ~nodes:300 ~edges:3000 in
  let rank = Workloads.Graph.Csr.pagerank g ~iterations:20 ~damping:0.85 in
  let sum = Array.fold_left ( +. ) 0.0 rank in
  Alcotest.(check (float 0.01)) "ranks sum to 1" 1.0 sum;
  Array.iter (fun r -> if r < 0.0 then Alcotest.fail "negative rank") rank;
  let top = Workloads.Graph.Csr.top_k rank ~k:5 in
  Alcotest.(check int) "top-5" 5 (List.length top);
  (match top with
  | (_, first) :: (_, second) :: _ ->
      Alcotest.(check bool) "sorted descending" true (first >= second)
  | _ -> Alcotest.fail "top_k");
  (* The synthetic generator biases toward low ids: node 0 should rank in
     the upper half. *)
  let sorted = Array.copy rank in
  Array.sort compare sorted;
  Alcotest.(check bool) "low ids favoured" true
    (rank.(0) >= sorted.(Array.length sorted / 2))

let test_pagerank_empty () =
  Alcotest.(check int) "empty graph" 0
    (Array.length
       (Workloads.Graph.Csr.pagerank
          (Workloads.Graph.Csr.of_edges ~nodes:0 [])
          ~iterations:3 ~damping:0.85))

(* ------------------------------------------------------------------ *)
(* IDS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ids_scores () =
  let r = rng () in
  let baseline = Workloads.Ids.baseline ~rng:r in
  let clean = Workloads.Ids.synthetic_log ~rng:r ~events:4000 ~anomaly_rate:0.0 in
  let attacked = Workloads.Ids.synthetic_log ~rng:r ~events:4000 ~anomaly_rate:0.3 in
  let clean_score = Workloads.Ids.score ~baseline clean in
  let attack_score = Workloads.Ids.score ~baseline attacked in
  Alcotest.(check bool) "clean close to baseline" true (clean_score < 0.05);
  Alcotest.(check bool) "attack diverges" true (attack_score > 2.0 *. clean_score);
  Alcotest.(check bool) "scores in [0,1]" true
    (clean_score >= 0.0 && clean_score <= 1.0 && attack_score >= 0.0 && attack_score <= 1.0)

let test_sketch_cosine () =
  let a = Workloads.Ids.Sketch.create ~width:64 in
  let b = Workloads.Ids.Sketch.create ~width:64 in
  let e = { Workloads.Ids.src = "x"; action = "y"; dst = "z" } in
  Alcotest.(check (float 0.001)) "empty cosine" 0.0 (Workloads.Ids.Sketch.cosine a b);
  Workloads.Ids.Sketch.add a e;
  Workloads.Ids.Sketch.add b e;
  Alcotest.(check (float 0.001)) "identical" 1.0 (Workloads.Ids.Sketch.cosine a b);
  Alcotest.(check int) "count" 1 (Workloads.Ids.Sketch.count a)

(* ------------------------------------------------------------------ *)
(* Image processing                                                    *)
(* ------------------------------------------------------------------ *)

let test_image_pipeline () =
  let r = rng () in
  let img = Workloads.Imageproc.Image.synthetic ~rng:r ~width:64 ~height:64 ~blobs:3 in
  Alcotest.(check int) "pixels" (64 * 64) (Array.length img.Workloads.Imageproc.Image.pixels);
  let edges = Workloads.Imageproc.Image.sobel img in
  let binary = Workloads.Imageproc.Image.threshold edges ~level:100 in
  Array.iter
    (fun v -> if v <> 0 && v <> 1 then Alcotest.fail "not binary")
    binary.Workloads.Imageproc.Image.pixels;
  let n = Workloads.Imageproc.Image.segments binary in
  Alcotest.(check bool) "found some segments" true (n >= 1);
  (* A blank image has no segments. *)
  let blank =
    { Workloads.Imageproc.Image.width = 8; height = 8; pixels = Array.make 64 0 }
  in
  Alcotest.(check int) "blank" 0 (Workloads.Imageproc.Image.segments blank)

let test_segments_counts_blobs () =
  (* Two clearly separated squares -> two components. *)
  let width = 32 and height = 32 in
  let pixels = Array.make (width * height) 0 in
  List.iter
    (fun (x0, y0) ->
      for y = y0 to y0 + 4 do
        for x = x0 to x0 + 4 do
          pixels.((y * width) + x) <- 1
        done
      done)
    [ (2, 2); (20, 20) ];
  Alcotest.(check int) "two components" 2
    (Workloads.Imageproc.Image.segments { Workloads.Imageproc.Image.width; height; pixels })

(* ------------------------------------------------------------------ *)
(* Profiles / spec builder                                             *)
(* ------------------------------------------------------------------ *)

let test_profiles_match_table5 () =
  (* Table 5/6 anchor values. *)
  let check name (p : Workloads.Workload.profile) seconds confined common =
    Alcotest.(check string) (name ^ " name") name p.Workloads.Workload.name;
    Alcotest.(check (float 0.001)) (name ^ " time") seconds p.Workloads.Workload.nominal_seconds;
    Alcotest.(check int) (name ^ " confined") confined p.Workloads.Workload.nominal_confined_mb;
    Alcotest.(check bool)
      (name ^ " common")
      true
      (match (p.Workloads.Workload.common, common) with
      | Some (_, mb), Some mb' -> mb = mb'
      | None, None -> true
      | _ -> false)
  in
  check "llama.cpp" Workloads.Llm.profile 52.85 501 (Some 4096);
  check "yolo" Workloads.Imageproc.profile 19.60 757 (Some 132);
  check "drugbank" Workloads.Retrieval.profile 12.89 814 (Some 400);
  check "graphchi" Workloads.Graph.profile 34.31 1340 None;
  check "unicorn" Workloads.Ids.profile 38.94 1254 None

let test_spec_scaling () =
  let spec = Workloads.Llm.spec () in
  Alcotest.(check int) "confined scaled by mem_scale"
    (501 * 1024 * 1024 / Workloads.Workload.mem_scale)
    spec.Sim.Machine.confined_bytes;
  Alcotest.(check int) "nominal preserved" 501 spec.Sim.Machine.nominal_confined_mb;
  Alcotest.(check bool) "sandboxed" true spec.Sim.Machine.sandboxed;
  Alcotest.(check int) "threads" 8 spec.Sim.Machine.threads

(* ------------------------------------------------------------------ *)
(* LMBench / netserve structure                                        *)
(* ------------------------------------------------------------------ *)

let test_lmbench_list () =
  let names = List.map (fun b -> b.Workloads.Lmbench.bench_name) Workloads.Lmbench.benches in
  Alcotest.(check (list string)) "fig 8 benches"
    [ "syscall"; "read"; "write"; "signal"; "mmap"; "pagefault"; "fork" ]
    names

let test_lmbench_syscall_overhead () =
  let ratio, native, erebor =
    Workloads.Lmbench.overhead (List.hd Workloads.Lmbench.benches)
  in
  Alcotest.(check (float 0.1)) "native null syscall"
    (float_of_int Hw.Cycles.Cost.syscall_roundtrip)
    native.Workloads.Lmbench.avg_cycles;
  Alcotest.(check bool) "erebor dearer" true (ratio > 1.0);
  Alcotest.(check bool) "but bounded" true (ratio < 4.0);
  Alcotest.(check bool) "ops/sec positive" true (erebor.Workloads.Lmbench.ops_per_sec > 0.0)

let test_lmbench_pagefault_worst () =
  (* Fig 8: pagefault is the worst benchmark. *)
  let ratios =
    List.map
      (fun b ->
        let ratio, _, _ = Workloads.Lmbench.overhead b in
        (b.Workloads.Lmbench.bench_name, ratio))
      Workloads.Lmbench.benches
  in
  let pf = List.assoc "pagefault" ratios in
  List.iter
    (fun (name, r) ->
      if name <> "pagefault" && name <> "mmap" then
        Alcotest.(check bool) (name ^ " below pagefault") true (r <= pf))
    ratios

let test_netserve_shape () =
  (* Small files hurt more; everything stays below parity. *)
  let small =
    Workloads.Netserve.relative_throughput Workloads.Netserve.Ssh ~file_kb:1 ~requests:20
  in
  let large =
    Workloads.Netserve.relative_throughput Workloads.Netserve.Ssh ~file_kb:4096 ~requests:2
  in
  Alcotest.(check bool) "below native" true (small < 1.0 && large < 1.0);
  Alcotest.(check bool) "small files hurt more" true (small < large);
  Alcotest.(check bool) "large files near native" true (large > 0.93)

(* ------------------------------------------------------------------ *)
(* Cycle attribution over the Fig. 9 grid                              *)
(* ------------------------------------------------------------------ *)

(* The attribution breakdown is part of the deterministic evaluation
   output: fanning the 25 machines across domains must not change a single
   cycle, and every row must conserve cycles exactly. *)
let test_attrib_determinism () =
  let a1 = Workloads.Eval.attrib ~jobs:1 () in
  let a2 = Workloads.Eval.attrib ~jobs:3 () in
  Alcotest.(check int) "program x setting grid"
    (List.length Workloads.Eval.all_programs * List.length Sim.Config.all)
    (List.length a1);
  Alcotest.(check bool) "identical under --jobs 1 vs --jobs 3" true (a1 = a2);
  List.iter
    (fun (r : Workloads.Eval.attrib_row) ->
      let name field =
        Printf.sprintf "%s@%s %s" r.aprogram (Sim.Config.name r.asetting) field
      in
      let summed =
        List.fold_left (fun acc (_, _, c) -> acc + c) r.unattributed_cycles
          r.contexts
      in
      Alcotest.(check int) (name "conserves cycles") r.total_cycles summed;
      Alcotest.(check bool) (name "run phase present") true
        (List.exists (fun (d, p, _) -> d = "user" && p = "run") r.contexts);
      List.iter
        (fun (_, _, c) ->
          Alcotest.(check bool) (name "nonzero contexts only") true (c > 0))
        r.contexts)
    a1

(* ------------------------------------------------------------------ *)
(* Bench regression gate                                               *)
(* ------------------------------------------------------------------ *)

let test_bench_gate_json () =
  let module J = Workloads.Bench_gate.Json in
  (match J.parse {| {"a": [1, 2.5, "x\n\"y\\", true, false, null, {}], "b": {"c": -3e2}} |} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v -> (
      (match J.member "a" v with
      | Some (J.Arr [ J.Num 1.0; J.Num 2.5; J.Str s; J.Bool true; J.Bool false;
                      J.Null; J.Obj [] ]) ->
          Alcotest.(check string) "string escapes" "x\n\"y\\" s
      | _ -> Alcotest.fail "array shape");
      match Option.bind (J.member "b" v) (J.member "c") with
      | Some (J.Num f) -> Alcotest.(check (float 1e-9)) "exponent" (-300.0) f
      | _ -> Alcotest.fail "nested member"));
  (match J.parse "{\"unterminated\": " with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated JSON");
  match J.parse "{} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage"

let test_bench_gate_pass () =
  (* A baseline regenerated from the current build must pass the gate. *)
  match Workloads.Bench_gate.check_string (Workloads.Bench_gate.render_anchors ()) with
  | Error e -> Alcotest.failf "gate errored: %s" e
  | Ok verdict ->
      List.iter
        (fun (c : Workloads.Bench_gate.check) ->
          Alcotest.(check bool) (c.name ^ ": " ^ c.detail) true c.ok)
        verdict;
      Alcotest.(check bool) "verdict passes" true
        (Workloads.Bench_gate.pass verdict);
      (* The gate actually looked at the anchors: one check per table-3 row
         and two per table-4 row, plus coverage and schema, plus the
         backend-pinning block (default-is-pks and one re-derivation per
         table-3/table-4 row under an explicit PKS backend). *)
      Alcotest.(check int) "check count"
        (1 (* schema *)
        + List.length (Workloads.Eval.table3 ()) + 1
        + (2 * List.length (Workloads.Eval.table4 ())) + 1
        + 1 (* backend/default *)
        + List.length (Workloads.Eval.table3 ()) (* backend/table3-pks/* *)
        + List.length (Workloads.Eval.table4 ()) (* backend/table4-pks/* *)
        + 3 (* wall + gc-minor + gc-major, vacuous without baseline fields *))
        (List.length verdict)

let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then s
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else find (i + 1)
  in
  find 0

let test_bench_gate_seeded_failure () =
  (* Perturb one anchor: the EMC round trip is 1224 in the rendered
     baseline; a baseline claiming 1225 must fail on exactly that check. *)
  let anchors = Workloads.Bench_gate.render_anchors () in
  let seeded = replace_first ~sub:"\"cycles\": 1224" ~by:"\"cycles\": 1225" anchors in
  Alcotest.(check bool) "anchor present and perturbed" true (seeded <> anchors);
  match Workloads.Bench_gate.check_string seeded with
  | Error e -> Alcotest.failf "gate errored: %s" e
  | Ok verdict ->
      Alcotest.(check bool) "seeded mismatch fails" false
        (Workloads.Bench_gate.pass verdict);
      (match Workloads.Bench_gate.failures verdict with
      | [ f ] ->
          Alcotest.(check bool) "failure names the anchor" true
            (f.Workloads.Bench_gate.name = "table3/EMC.cycles")
      | fs -> Alcotest.failf "expected exactly 1 failure, got %d" (List.length fs));
      (* Dropping a row entirely trips the coverage check instead. *)
      let missing_row =
        match Workloads.Bench_gate.check_string "{\"schema\": \"erebor-bench-sim/1\", \"table3\": [], \"table4\": []}" with
        | Ok v -> v
        | Error e -> Alcotest.failf "gate errored: %s" e
      in
      Alcotest.(check bool) "empty anchor tables fail coverage" false
        (Workloads.Bench_gate.pass missing_row)

(* ------------------------------------------------------------------ *)
(* Experiment gates: density, attrib                                   *)
(* ------------------------------------------------------------------ *)

module G = Workloads.Bench_gate

let test_density_smoke_rows () =
  (* The smoke scaling rows pinned exactly, frame for frame and cycle for
     cycle. *)
  let rows = Workloads.Density.scaling ~jobs:1 ~smoke:true () in
  let row backend n (conf, ptp, com) p99 violations =
    Printf.sprintf "%s/%d frames %d/%d/%d p99 %d violations %d" backend n
      conf ptp com p99 violations
  in
  let expect backend p99 =
    List.map
      (fun (n, frames) -> row backend n frames p99 0)
      [ (1, (16, 13, 8)); (2, (32, 17, 9)); (4, (64, 25, 11)) ]
  in
  Alcotest.(check (list string)) "smoke rows"
    (expect "pks" 10181 @ expect "tmemk" 10293)
    (List.map
       (fun (r : Workloads.Density.scale_row) ->
         row
           (Erebor.Isolation.kind_name r.sbackend)
           r.tenants
           (r.confined_frames, r.ptp_frames, r.common_frames)
           r.worst_p99 r.violations)
       rows);
  let verdict = Workloads.Density.checks rows in
  Alcotest.(check (list string)) "one check per row"
    [
      "density/pks/1/violations"; "density/pks/2/violations";
      "density/pks/4/violations"; "density/tmemk/1/violations";
      "density/tmemk/2/violations"; "density/tmemk/4/violations";
    ]
    (List.map (fun (c : G.check) -> c.G.name) verdict);
  Alcotest.(check bool) "smoke density passes" true (G.pass verdict);
  (* One undenied probe attempt fails exactly its row's check. *)
  let breached = { (List.hd rows) with violations = 1 } in
  match G.failures (Workloads.Density.checks (breached :: List.tl rows)) with
  | [ f ] ->
      Alcotest.(check string) "failing check" "density/pks/1/violations"
        f.G.name;
      Alcotest.(check (option string)) "new side" (Some "1") f.G.new_value
  | fs -> Alcotest.failf "expected 1 failure, got %d" (List.length fs)

let test_attrib_checks () =
  let row total =
    {
      Workloads.Eval.aprogram = "drugbank";
      asetting = Sim.Config.Erebor_full;
      total_cycles = total;
      unattributed_cycles = 2;
      contexts = [ ("user", "run", 5); ("monitor", "gate", 3) ];
    }
  in
  let ok = G.attrib_checks [ row 10 ] in
  Alcotest.(check (list string)) "name"
    [ "attrib/drugbank:erebor/conservation" ]
    (List.map (fun (c : G.check) -> c.G.name) ok);
  Alcotest.(check bool) "conserving row passes" true (G.pass ok);
  let off = G.attrib_checks [ row 11 ] in
  Alcotest.(check bool) "total off by one fails" false (G.pass off);
  Alcotest.(check (option string)) "old is the total" (Some "11")
    (List.hd off).G.old_value;
  Alcotest.(check (option string)) "new is the sum" (Some "10")
    (List.hd off).G.new_value

let test_nearest_rank () =
  let a = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50" 50 (G.nearest_rank a ~p:0.50);
  Alcotest.(check int) "p99" 99 (G.nearest_rank a ~p:0.99);
  Alcotest.(check int) "p100" 100 (G.nearest_rank a ~p:1.0);
  Alcotest.(check int) "p0 clamps to the minimum" 1 (G.nearest_rank a ~p:0.0);
  Alcotest.(check int) "empty" 0 (G.nearest_rank [||] ~p:0.99)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "workloads"
    [
      ( "llm",
        [
          Alcotest.test_case "train/generate" `Quick test_llm_train_generate;
          Alcotest.test_case "deterministic" `Quick test_llm_deterministic_given_rng;
          Alcotest.test_case "bad order" `Quick test_llm_rejects_bad_order;
        ] );
      ( "retrieval",
        [
          Alcotest.test_case "hashmap basics" `Quick test_hashmap_basic;
          Alcotest.test_case "hashmap rejects" `Quick test_hashmap_rejects;
          Alcotest.test_case "synthetic db" `Quick test_synthetic_db;
          qt prop_hashmap_model;
        ] );
      ( "graph",
        [
          Alcotest.test_case "csr structure" `Quick test_csr_structure;
          Alcotest.test_case "pagerank properties" `Quick test_pagerank_properties;
          Alcotest.test_case "empty graph" `Quick test_pagerank_empty;
        ] );
      ( "ids",
        [
          Alcotest.test_case "scores" `Quick test_ids_scores;
          Alcotest.test_case "sketch cosine" `Quick test_sketch_cosine;
        ] );
      ( "imageproc",
        [
          Alcotest.test_case "pipeline" `Quick test_image_pipeline;
          Alcotest.test_case "segment count" `Quick test_segments_counts_blobs;
        ] );
      ( "profiles",
        [
          Alcotest.test_case "table 5 anchors" `Quick test_profiles_match_table5;
          Alcotest.test_case "spec scaling" `Quick test_spec_scaling;
        ] );
      ( "benches",
        [
          Alcotest.test_case "lmbench list" `Quick test_lmbench_list;
          Alcotest.test_case "syscall overhead" `Quick test_lmbench_syscall_overhead;
          Alcotest.test_case "pagefault worst" `Slow test_lmbench_pagefault_worst;
          Alcotest.test_case "netserve shape" `Slow test_netserve_shape;
        ] );
      ( "attrib",
        [
          Alcotest.test_case "fig9 grid: jobs-independent + conserving" `Quick
            test_attrib_determinism;
        ] );
      ( "bench-gate",
        [
          Alcotest.test_case "json parser" `Quick test_bench_gate_json;
          Alcotest.test_case "current anchors pass" `Quick test_bench_gate_pass;
          Alcotest.test_case "seeded mismatch fails" `Quick
            test_bench_gate_seeded_failure;
        ] );
      ( "gates",
        [
          Alcotest.test_case "density smoke rows pinned" `Quick
            test_density_smoke_rows;
          Alcotest.test_case "attrib conservation check" `Quick
            test_attrib_checks;
          Alcotest.test_case "nearest-rank oracle" `Quick test_nearest_rank;
        ] );
    ]
