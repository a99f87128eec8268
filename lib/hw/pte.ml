type t = int64

let empty = 0L

let bit_present = 0
let bit_writable = 1
let bit_user = 2
let bit_accessed = 5
let bit_dirty = 6
let bit_huge = 7
let pfn_shift = 12
let pfn_bits = 36
let keyid_shift = 48
let keyid_bits = 10
let pkey_shift = 59
let bit_nx = 63

type flags = {
  present : bool;
  writable : bool;
  user : bool;
  nx : bool;
  pkey : int;
  accessed : bool;
  dirty : bool;
}

let default_flags =
  { present = true; writable = true; user = false; nx = false; pkey = 0;
    accessed = false; dirty = false }

let get_bit t i = Int64.logand (Int64.shift_right_logical t i) 1L = 1L

let set_bit t i v =
  if v then Int64.logor t (Int64.shift_left 1L i)
  else Int64.logand t (Int64.lognot (Int64.shift_left 1L i))

let pfn_mask = Int64.shift_left (Int64.sub (Int64.shift_left 1L pfn_bits) 1L) pfn_shift

(* The entry is assembled as an immediate and converted once, so the only
   allocation is the returned box. Bits 0..58 fit an OCaml int; the pkey's
   top bit (62) and NX (63) are added on the [int64]. *)
let flag b i = if b then 1 lsl i else 0

let build ~pfn ~present ~writable ~user ~nx ~pkey ~accessed ~dirty =
  if pfn < 0 || pfn >= 1 lsl pfn_bits then invalid_arg "Pte.make: pfn out of range";
  if pkey < 0 || pkey > 15 then invalid_arg "Pte.make: pkey out of range";
  let low =
    (pfn lsl pfn_shift)
    lor flag present bit_present
    lor flag writable bit_writable
    lor flag user bit_user
    lor flag accessed bit_accessed
    lor flag dirty bit_dirty
  in
  let t = Int64.logor (Int64.of_int low) (Int64.shift_left (Int64.of_int pkey) pkey_shift) in
  if nx then Int64.logor t Int64.min_int else t

let make ~pfn f =
  build ~pfn ~present:f.present ~writable:f.writable ~user:f.user ~nx:f.nx
    ~pkey:f.pkey ~accessed:f.accessed ~dirty:f.dirty

let make_leaf ~pfn ~user ~writable ~nx =
  build ~pfn ~present:true ~writable ~user ~nx ~pkey:0 ~accessed:false ~dirty:false

let pfn t = Int64.to_int (Int64.shift_right_logical (Int64.logand t pfn_mask) pfn_shift)
let present t = get_bit t bit_present
let writable t = get_bit t bit_writable
let user t = get_bit t bit_user
let nx t = get_bit t bit_nx
let pkey t = Int64.to_int (Int64.logand (Int64.shift_right_logical t pkey_shift) 0xfL)
let dirty t = get_bit t bit_dirty
let accessed t = get_bit t bit_accessed

let flags t =
  { present = present t; writable = writable t; user = user t; nx = nx t;
    pkey = pkey t; accessed = accessed t; dirty = dirty t }

let with_pfn t pfn' =
  if pfn' < 0 || pfn' >= 1 lsl pfn_bits then invalid_arg "Pte.with_pfn: pfn out of range";
  Int64.logor
    (Int64.logand t (Int64.lognot pfn_mask))
    (Int64.shift_left (Int64.of_int pfn') pfn_shift)

let set_present t v = set_bit t bit_present v
let set_writable t v = set_bit t bit_writable v
let set_user t v = set_bit t bit_user v
let set_nx t v = set_bit t bit_nx v
let set_dirty t v = set_bit t bit_dirty v
let set_accessed t v = set_bit t bit_accessed v

let huge t = get_bit t bit_huge
let set_huge t v = set_bit t bit_huge v

let keyid_mask = Int64.shift_left (Int64.sub (Int64.shift_left 1L keyid_bits) 1L) keyid_shift

let keyid t =
  Int64.to_int
    (Int64.logand
       (Int64.shift_right_logical t keyid_shift)
       (Int64.sub (Int64.shift_left 1L keyid_bits) 1L))

let set_keyid t k =
  if k < 0 || k >= 1 lsl keyid_bits then invalid_arg "Pte.set_keyid: keyid out of range";
  Int64.logor
    (Int64.logand t (Int64.lognot keyid_mask))
    (Int64.shift_left (Int64.of_int k) keyid_shift)

let set_pkey t k =
  if k < 0 || k > 15 then invalid_arg "Pte.set_pkey: pkey out of range";
  Int64.logor
    (Int64.logand t (Int64.lognot (Int64.shift_left 0xfL pkey_shift)))
    (Int64.shift_left (Int64.of_int k) pkey_shift)

let pp fmt t =
  if not (present t) then Fmt.string fmt "<not-present>"
  else
    Fmt.pf fmt "pfn=%#x%s%s%s%s key=%d" (pfn t)
      (if writable t then " W" else " RO")
      (if user t then " U" else " S")
      (if nx t then " NX" else "")
      (if dirty t then " D" else "")
      (pkey t)
