(* The layers host time and allocation are charged to. Each layer is one of
   the repository's libraries; the span phases the program already emits
   map onto them, and the public calls the benchmark makes itself (machine
   creation, [Sim.Machine.run], the sandbox calls, [Kernel.populate], the
   telemetry record calls) get a layer of their own so their glue is not
   lost in "outside". *)

let outside = 0
let sim_boot = 1
let sim_run = 2
let workloads_run = 3
let erebor_gate = 4
let erebor_svc = 5
let erebor_interpose = 6
let erebor_sandbox = 7
let kernel_syscall = 8
let kernel_timer = 9
let kernel_sched = 10
let kernel_pf = 11
let kernel_populate = 12
let tdx_ve = 13
let crypto_attest = 14
let crypto_channel = 15
let obs_sink = 16

let names =
  [|
    "outside";
    "sim.boot";
    "sim.run";
    "workloads.run";
    "erebor.gate";
    "erebor.svc";
    "erebor.interpose";
    "erebor.sandbox";
    "kernel.syscall";
    "kernel.timer";
    "kernel.sched";
    "kernel.pf";
    "kernel.populate";
    "tdx.ve";
    "crypto.attest";
    "crypto.channel";
    "obs.sink";
  |]

let count = Array.length names

let of_phase : Obs.Trace.phase -> int = function
  | Boot | Scan -> sim_boot
  | Attest -> crypto_attest
  | Run -> workloads_run
  | Emc_gate -> erebor_gate
  | Svc_mmu | Svc_cr | Svc_msr | Svc_idt | Svc_smap | Svc_ghci -> erebor_svc
  | Exit_interpose -> erebor_interpose
  | Ve_handler -> tdx_ve
  | Pf_handler -> kernel_pf
  | Timer_handler -> kernel_timer
  | Syscall_dispatch -> kernel_syscall
  | Channel_crypto -> crypto_channel
  | Scheduler -> kernel_sched

(* Dense lookup by [Obs.Trace.phase_index], so the sink never allocates. *)
let by_phase_index =
  Array.init Obs.Trace.n_phases (fun i -> of_phase (Obs.Trace.phase_of_index i))

(* The coarse layers a session's life passes through, logged span by span
   for the serve session log; the fine-grained ones are only summed. *)
let lifecycle =
  Array.init count (fun l ->
      List.mem l [ sim_boot; sim_run; workloads_run; crypto_attest; crypto_channel ])
