type t = { counts : int array; arg_sums : int array }

let create () =
  { counts = Array.make Trace.n_kinds 0; arg_sums = Array.make Trace.n_kinds 0 }

let sink t kind ~ts:_ ~arg =
  let i = Trace.index kind in
  t.counts.(i) <- t.counts.(i) + 1;
  t.arg_sums.(i) <- t.arg_sums.(i) + arg

let attach emitter t =
  Emitter.attach emitter (sink t);
  t

let of_emitter e = { counts = Emitter.counts e; arg_sums = Emitter.arg_sums e }

let count t kind = t.counts.(Trace.index kind)
let arg_sum t kind = t.arg_sums.(Trace.index kind)

let total t = Array.fold_left ( + ) 0 t.counts

let reset t =
  Array.fill t.counts 0 Trace.n_kinds 0;
  Array.fill t.arg_sums 0 Trace.n_kinds 0
