type sink = Trace.kind -> ts:int -> arg:int -> unit

type t = {
  counts : int array;
  arg_sums : int array;
  mutable sinks : sink array;
  mutable audit : Audit.t option;
  mutable finalizers : (now:int -> unit) list;
  mutable finalized : bool;
}

let create () =
  {
    counts = Array.make Trace.n_kinds 0;
    arg_sums = Array.make Trace.n_kinds 0;
    sinks = [||];
    audit = None;
    finalizers = [];
    finalized = false;
  }

let attach t sink = t.sinks <- Array.append t.sinks [| sink |]

let sink_count t = Array.length t.sinks
let counts t = t.counts
let arg_sums t = t.arg_sums

(* The per-kind table is updated in place before any sink runs; [index] is
   in [0, n_kinds) by construction, so the stores skip the bounds check. *)
let emit t kind ~ts ~arg =
  let i = Trace.index kind in
  let counts = t.counts and arg_sums = t.arg_sums in
  Array.unsafe_set counts i (Array.unsafe_get counts i + 1);
  Array.unsafe_set arg_sums i (Array.unsafe_get arg_sums i + arg);
  let sinks = t.sinks in
  for j = 0 to Array.length sinks - 1 do
    (Array.unsafe_get sinks j) kind ~ts ~arg
  done

(* Audit hook: the structured side channel for decisions whose detail does
   not fit the int-arg bus. The detail thunk only runs when a log is
   attached, so instrumented paths stay allocation-free otherwise. *)

let set_audit t audit = t.audit <- audit
let audit t = t.audit

let audit_event t ~ts ~category ~verdict detail =
  match t.audit with
  | None -> ()
  | Some log -> Audit.append log ~ts ~category ~verdict ~detail:(detail ())

(* Finalizers: flush/close hooks for sinks with buffered or open state
   (attribution contexts, audit chains). [finalize] is idempotent so both
   the normal-exit path and an exception handler can call it. *)

let add_finalizer t f = t.finalizers <- f :: t.finalizers

let finalize t ~now =
  if not t.finalized then begin
    t.finalized <- true;
    List.iter (fun f -> f ~now) (List.rev t.finalizers);
    match t.audit with None -> () | Some log -> Audit.finalize log ~now
  end

let finalized t = t.finalized
