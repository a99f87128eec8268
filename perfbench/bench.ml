(* The run loop: set up, warm up, measure passes for the requested time,
   check outputs, and reduce everything to the named metrics. *)

type workload = Fig9 | Serve | Memshare

let workloads = [ ("fig9", Fig9); ("serve", Serve); ("memshare", Memshare) ]
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type config = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  out_dir : string;
}

(* {1 Statistics} *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Mean of the values left after cutting the lowest and highest tenth. *)
let trimmed_mean xs =
  let a = sorted xs in
  let n = Array.length a in
  let cut = n / 10 in
  let kept = Array.sub a cut (n - (2 * cut)) in
  if Array.length kept = 0 then nan
  else Array.fold_left ( +. ) 0.0 kept /. float_of_int (Array.length kept)

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* {1 Passes} *)

type measured = {
  pass : Work.pass;
  wall_ns : int;
  minor : float;
  major : float;
  icode_hits : int;
  icode_misses : int;
}

(* One pass. A pass ends by collecting its garbage inside the timed
   interval, so it pays for everything it allocated and the next pass starts
   on a clean heap: every pass then repeats the same operations on the same
   heap history. Without this a pass's time depended on the major-heap debt
   earlier passes left, and drifted by ~30% over a run. [on_start]/[on_stop]
   run just inside the timed interval. *)
let measure ?(on_start = ignore) ?(on_stop = ignore) run =
  let ih0, im0 = Hw.Icode.cache_stats () in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  let minor0 = Gc.minor_words () in
  on_start ();
  let t0 = Tracer.now_ns () in
  let pass = run () in
  Gc.full_major ();
  let t1 = Tracer.now_ns () in
  on_stop ();
  let minor1 = Gc.minor_words () in
  let major1 = (Gc.quick_stat ()).Gc.major_words in
  let ih1, im1 = Hw.Icode.cache_stats () in
  {
    pass;
    wall_ns = t1 - t0;
    minor = minor1 -. minor0;
    major = major1 -. major0;
    icode_hits = ih1 - ih0;
    icode_misses = im1 - im0;
  }

(* Repeat [f] until [seconds] have elapsed and at least [min] times. *)
let repeat_for ~seconds ~min f =
  let deadline = Tracer.now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc n =
    if n >= min && Tracer.now_ns () >= deadline then List.rev acc
    else go (f () :: acc) (n + 1)
  in
  go [] 0

let setup_samples = 5

(* Host seconds in [Sim.Machine.create] for the workload's machine, on a
   freshly collected heap. For [serve] the telemetry is attached to the
   emitter first and the journal is closed afterwards, outside the timed
   call, as in the real set-up. *)
let time_create cfg =
  let timed create =
    Gc.full_major ();
    let t0 = Tracer.now_ns () in
    let m = create () in
    (float_of_int (Tracer.now_ns () - t0) /. 1e9, m)
  in
  match cfg.workload with
  | Fig9 | Memshare -> fst (timed (fun () -> Work.erebor_machine ()))
  | Serve ->
      let obs, _ =
        Work.serve_emitter (Work.bare ()) ~journal_path:(Filename.concat cfg.out_dir "setup.ejrn")
      in
      let dt, m = timed (fun () -> Work.erebor_machine ~obs ()) in
      Work.finish_machine obs m;
      dt

(* {1 Results} *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  problems : string list;  (** Failed checks other than operations. *)
  lines : string list;  (** Human-readable report. *)
  fingerprint : string;
}

let m name value unit_ = { name; value; unit_ }

let count_ops passes =
  List.fold_left
    (fun (a, f) p ->
      Array.fold_left
        (fun (a, f) (o : Work.op) -> (a + 1, if o.op_ok then f else f + 1))
        (a, f) p.pass.Work.ops)
    (0, 0) passes

(* Every pass repeats the same operations on the same inputs, so each
   operation's latency is averaged over the passes first (host noise cut
   away), and the percentiles are taken over the operations. *)
let op_ms passes =
  match passes with
  | [] -> []
  | p0 :: _ ->
      List.init (Array.length p0.pass.Work.ops) (fun i ->
          trimmed_mean
            (List.map (fun p -> float_of_int p.pass.Work.ops.(i).Work.op_ns /. 1e6) passes))

let secs ns = float_of_int ns /. 1e9
let mwords w = w /. 1e6

let fingerprint_of cfg (warm : measured) =
  let p = warm.pass in
  Digest.to_hex
    (Digest.string
       (String.concat " "
          (workload_name cfg.workload :: p.Work.fingerprint
          :: string_of_int p.Work.backed_max
          :: string_of_int warm.icode_hits
          :: List.map string_of_int (Array.to_list p.Work.counts))))

(* Counts, ratios and modelled values: all from the warm-up pass, which is
   the same on every run with the same seed. *)
let model_metrics (warm : measured) =
  let p = warm.pass in
  let c i = float_of_int p.Work.counts.(i) in
  let pct a b = if a +. b = 0.0 then 0.0 else 100.0 *. a /. (a +. b) in
  let model name = match List.assoc_opt name p.Work.model with Some v -> v | None -> 0.0 in
  let vms = List.map (fun (o : Work.op) -> float_of_int o.op_vcyc /. 2.1e6) (Array.to_list p.Work.ops) in
  let vcyc d = float_of_int p.Work.vcyc.(Obs.Trace.domain_index d) /. 1e6 in
  [
    m "erebor.emc" (c Work.c_emc) "count";
    m "erebor.emc_mmu" (c Work.c_emc_mmu) "count";
    m "kernel.page_faults" (c Work.c_page_faults) "count";
    m "kernel.syscalls" (c Work.c_syscalls) "count";
    m "kernel.timer_irqs" (c Work.c_timer_irqs) "count";
    m "kernel.ctx_switches" (c Work.c_ctx_switches) "count";
    m "tdx.ve_exits" (c Work.c_ve_exits) "count";
    m "hw.tlb_hit_pct" (pct (c Work.c_tlb_hits) (c Work.c_tlb_misses)) "%";
    m "hw.icode_hit_pct"
      (pct (float_of_int warm.icode_hits) (float_of_int warm.icode_misses))
      "%";
    m "hw.backed_mb" (float_of_int (p.Work.backed_max * Hw.Phys_mem.page_size) /. 1048576.0) "MiB";
    m "obs.events" (c Work.c_events) "count";
    m "erebor.channel_kb" (c Work.c_channel_bytes /. 1024.0) "KiB";
    m "fig9_err_pp" (model "fig9_err_pp") "pp";
    m "fig9.libos_pct" (model "fig9.libos_pct") "%";
    m "fig9.mmu_pct" (model "fig9.mmu_pct") "%";
    m "fig9.exit_pct" (model "fig9.exit_pct") "%";
    m "fig9.full_pct" (model "fig9.full_pct") "%";
    m "vcyc.user" (vcyc Obs.Trace.User) "Mcyc";
    m "vcyc.kernel" (vcyc Obs.Trace.Kernel) "Mcyc";
    m "vcyc.monitor" (vcyc Obs.Trace.Monitor) "Mcyc";
    m "vcyc.host" (vcyc Obs.Trace.Host) "Mcyc";
    m "sess_vms_p50" (percentile 0.5 vms) "vms";
    m "sess_vms_p90" (percentile 0.9 vms) "vms";
    m "memshare.saving_pct" (model "memshare.saving_pct") "%";
  ]

(* {1 The run} *)

type state = {
  run_pass : Work.instruments -> Work.pass;
  sessions : (Tracer.t -> Work.pass -> Work.session_row list) option;
      (** Rows of a traced pass's session log (serve only). *)
  close : unit -> unit;
}

let prepare cfg inst =
  match cfg.workload with
  | Fig9 -> { run_pass = Work.fig9_pass; sessions = None; close = ignore }
  | Memshare -> { run_pass = Work.memshare_pass; sessions = None; close = ignore }
  | Serve ->
      let s =
        Work.serve_prepare inst ~seed:cfg.seed
          ~journal_path:(Filename.concat cfg.out_dir "serve.ejrn")
      in
      let log = if cfg.trace then Some (Work.session_log ()) else None in
      {
        run_pass = (fun inst -> Work.serve_pass ?log inst s);
        sessions = Option.map (fun l t p -> Work.session_rows l t s p) log;
        close = (fun () -> Work.finish_machine s.Work.obs s.Work.machine);
      }

let determinism_problems cfg (warm : measured) passes =
  match cfg.workload with
  | Serve -> []
  | Fig9 | Memshare ->
      List.filter_map
        (fun p ->
          if p.pass.Work.fingerprint = warm.pass.Work.fingerprint then None
          else Some "a pass's modelled values differ from the warm-up pass's")
        passes

let calib_samples = 4
let rss_passes = 3

let probe = function Fig9 | Memshare -> Calib.Stream | Serve -> Calib.Alloc

(* Probe samples taken between passes of an untraced run; the heap is left
   collected, so the next pass starts clean. *)
let calibrate cfg cal =
  for _ = 1 to calib_samples do
    cal := float_of_int (Calib.sample (probe cfg.workload)) :: !cal
  done;
  Gc.full_major ()

let run cfg =
  let cal = ref [] in
  if not cfg.trace then calibrate cfg cal;
  let setup = ref (List.init setup_samples (fun _ -> time_create cfg)) in
  let tracer =
    if cfg.trace then Some (Tracer.create ~log_capacity:(Work.serve_sessions * 64) ()) else None
  in
  Option.iter (fun t -> t.Tracer.on <- false) tracer;
  let inst = { Work.tracer; attrib = cfg.trace } in
  let st = prepare cfg inst in
  let warm = measure (fun () -> st.run_pass inst) in
  inst.Work.attrib <- false;
  let fingerprint = fingerprint_of cfg warm in
  let result =
    if not cfg.trace then begin
      (* Three more set-up samples after every pass, so set-up time is
         sampled across the whole run rather than in one burst. The peak
         resident set is read after a fixed number of passes: the heap
         keeps growing slowly over later passes, so a reading at the end
         would depend on how many passes the host speed allowed. *)
      let rss = ref nan and n = ref 0 in
      let passes =
        repeat_for ~seconds:cfg.seconds ~min:rss_passes (fun () ->
            let p = measure (fun () -> st.run_pass inst) in
            incr n;
            if !n = rss_passes then rss := peak_rss_mb () -. Calib.resident_mib ();
            for _ = 1 to 3 do
              setup := time_create cfg :: !setup
            done;
            calibrate cfg cal;
            p)
      in
      (* Host time scaled to the probe's reference speed. *)
      let speed = Calib.reference_ns (probe cfg.workload) /. median !cal in
      let wall = List.map (fun p -> secs p.wall_ns *. speed) passes in
      let ms = List.map (fun x -> x *. speed) (op_ms passes) in
      let attempted, failed = count_ops (warm :: passes) in
      let n_ms = List.length ms in
      let metrics =
        [
          m "pass_s" (trimmed_mean wall) "s";
          m "setup_s" (median !setup *. speed) "s";
          m "sess_ms_p50" (percentile 0.5 ms) "ms";
          m "sess_ms_p90" (percentile 0.9 ms) "ms";
          m "alloc_mwords" (median (List.map (fun p -> mwords p.minor) passes)) "Mwords";
          m "major_mwords" (median (List.map (fun p -> mwords p.major) passes)) "Mwords";
          m "peak_rss_mb" !rss "MiB";
        ]
      in
      let lines =
        [
          Printf.sprintf
            "passes: %d timed after 1 warm-up; %d operations per pass, each timed %d times (%d samples)"
            (List.length passes) n_ms (List.length passes)
            (n_ms * List.length passes);
          Printf.sprintf "calibration: %s probe median %.0f ns over %d samples; times scaled by %.4f"
            (Calib.name (probe cfg.workload)) (median !cal) (List.length !cal) speed;
          "pass seconds (scaled): " ^ String.concat " " (List.map (Printf.sprintf "%.3f") wall);
          Printf.sprintf "unscaled: pass_s %.6f s, setup_s %.6f s" (trimmed_mean wall /. speed)
            (median !setup);
          Printf.sprintf "fail_pct %.4f %% (%d of %d operations)"
            (100.0 *. float_of_int failed /. float_of_int (max 1 attempted))
            failed attempted;
        ]
        @
        match List.assoc_opt "fig9_err_pp" warm.pass.Work.model with
        | Some err ->
            [ Printf.sprintf "fig9_err_pp %.4f pp (geomean gap to the paper's 1.7/3.6/3.9/8.1)" err ]
        | None -> []
      in
      {
        metrics;
        attempted;
        failed;
        problems = determinism_problems cfg warm passes;
        lines;
        fingerprint;
      }
    end
    else begin
      let t = Option.get tracer in
      (* Untraced and traced passes alternate, so a drift in host speed
         lands on both sides of the overhead comparison. *)
      let traced_layers = ref [] in
      let session_rows = ref None in
      let untraced_pass () = measure (fun () -> st.run_pass inst) in
      let traced_pass () =
        let p =
          measure
            ~on_start:(fun () ->
              Tracer.reset t;
              t.Tracer.on <- true)
            ~on_stop:(fun () ->
              Tracer.stamp t;
              t.Tracer.on <- false)
            (fun () -> st.run_pass inst)
        in
        (match (st.sessions, !session_rows) with
        | Some rows, None -> session_rows := Some (rows t p.pass)
        | _ -> ());
        traced_layers :=
          (Array.copy t.Tracer.ns, Array.copy t.Tracer.words, Array.copy t.Tracer.calls, p)
          :: !traced_layers;
        p
      in
      let pairs = repeat_for ~seconds:cfg.seconds ~min:2 (fun () ->
          let u = untraced_pass () in
          (u, traced_pass ()))
      in
      let reference = List.map fst pairs and traced = List.map snd pairs in
      let layers = List.rev !traced_layers in
      let ref_wall = median (List.map (fun p -> float_of_int p.wall_ns) reference) in
      let ref_minor = median (List.map (fun p -> p.minor) reference) in
      let tr_wall = median (List.map (fun p -> float_of_int p.wall_ns) traced) in
      let problems = ref (determinism_problems cfg warm (reference @ traced)) in
      let problem s = problems := s :: !problems in
      if t.Tracer.mismatched > 0 || t.Tracer.overflowed > 0 then
        problem
          (Printf.sprintf "tracer saw %d mismatched span ends and %d overflows"
             t.Tracer.mismatched t.Tracer.overflowed);
      (* Conservation: the layers' self times sum to the traced pass, and
         their self words to the pass's minor words. *)
      let gaps =
        List.map
          (fun (ns, words, _, p) ->
            let sum_ns = float_of_int (Array.fold_left ( + ) 0 ns) in
            let sum_w = Array.fold_left ( +. ) 0.0 words in
            ( 100.0 *. Float.abs (sum_ns -. float_of_int p.wall_ns) /. float_of_int p.wall_ns,
              100.0 *. Float.abs (sum_w -. ref_minor) /. ref_minor ))
          layers
      in
      let ns_gap = List.fold_left (fun a (g, _) -> Float.max a g) 0.0 gaps in
      let words_gap = List.fold_left (fun a (_, g) -> Float.max a g) 0.0 gaps in
      if ns_gap > 0.5 then problem (Printf.sprintf "layer times miss the traced pass by %.3f%%" ns_gap);
      if words_gap > 0.5 then
        problem (Printf.sprintf "layer words miss the untraced pass's minor words by %.3f%%" words_gap);
      (* A layer's self time as a share of its traced pass, median over passes. *)
      let share l =
        median
          (List.map
             (fun (ns, _, _, _) ->
               100.0 *. float_of_int ns.(l) /. float_of_int (Array.fold_left ( + ) 0 ns))
             layers)
      in
      let per_layer l =
        let name = Layers.names.(l) in
        [
          m (name ^ ".ns") (median (List.map (fun (ns, _, _, _) -> float_of_int ns.(l)) layers)) "ns";
          m (name ^ ".words") (median (List.map (fun (_, w, _, _) -> mwords w.(l)) layers)) "Mwords";
        ]
        @
        (* "outside" is never entered: it has time and words, no calls. *)
        if l = Layers.outside then []
        else
          [
            m (name ^ ".calls")
              (median (List.map (fun (_, _, c, _) -> float_of_int c.(l)) layers))
              "count";
          ]
      in
      let events = float_of_int warm.pass.Work.counts.(Work.c_events) in
      let metrics =
        List.concat_map per_layer (List.init Layers.count Fun.id)
        @ [
            m "trace.pass_s" (tr_wall /. 1e9) "s";
            m "trace.overhead_pct"
              (100.0
              *. (median
                    (List.map
                       (fun (u, tp) -> float_of_int tp.wall_ns /. float_of_int u.wall_ns)
                       pairs)
                 -. 1.0))
              "%";
            m "trace.coverage_pct" (100.0 -. share Layers.outside) "%";
            m "trace.conservation_gap_pct" ns_gap "%";
            m "sim.ns_per_event" (ref_wall /. events) "ns";
          ]
        @ model_metrics warm
      in
      Option.iter
        (Report.write_sessions ~path:(Filename.concat cfg.out_dir "serve_sessions.jsonl"))
        !session_rows;
      let attempted, failed = count_ops ((warm :: reference) @ traced) in
      let lines =
        [
          Printf.sprintf "passes: %d untraced, %d traced, after 1 warm-up" (List.length reference)
            (List.length traced);
          Printf.sprintf "conservation: layer ns within %.4f%% of the traced pass; layer words within %.4f%% of the untraced pass"
            ns_gap words_gap;
        ]
      in
      { metrics; attempted; failed; problems = List.rev !problems; lines; fingerprint }
    end
  in
  st.close ();
  result

let main cfg =
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n%!" (workload_name cfg.workload)
    cfg.seed cfg.seconds (if cfg.trace then 1 else 0);
  let r = run cfg in
  let non_finite = List.filter (fun x -> not (Float.is_finite x.value)) r.metrics in
  let problems =
    r.problems
    @ List.map (fun x -> Printf.sprintf "metric %s is not a finite number" x.name) non_finite
  in
  List.iter print_endline r.lines;
  List.iter (fun x -> Printf.printf "  %-32s %18.6f %s\n" x.name x.value x.unit_) r.metrics;
  Printf.printf "fingerprint %s seed=%d %s\n" (workload_name cfg.workload) cfg.seed r.fingerprint;
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  let correct = r.failed = 0 && problems = [] in
  let metrics =
    List.map (fun x -> (x.name, (if Float.is_finite x.value then x.value else 0.0), x.unit_)) r.metrics
  in
  print_endline (Report.result_line ~correct ~attempted:r.attempted ~failed:r.failed metrics);
  if correct then 0 else 1
