type walk_result = {
  pte : Pte.t;
  pte_addr : int;
  user : bool;
  writable : bool;
  nx : bool;
  huge : bool;
  pfn : int; (* resolved for the exact vaddr (huge pages span 512 frames) *)
}

let split vaddr =
  let idx n = (vaddr lsr (12 + (9 * n))) land 0x1ff in
  (idx 3, idx 2, idx 1, idx 0)

let page_base vaddr = vaddr land lnot (Phys_mem.page_size - 1)

type writer = pte_addr:int -> Pte.t -> unit

let entry_addr table_pfn index = (table_pfn lsl Phys_mem.page_shift) + (8 * index)

(* {1 The descent}

   Entries are decoded from their two 32-bit halves, which [Phys_mem]
   returns as immediates, so the descent never builds an [int64]: under
   dune's dev profile every module is compiled [-opaque], and an [int64]
   returned by [Phys_mem.read_u64] or passed to a [Pte] accessor is boxed
   at each such call. Bits used, per half:
   - low: 0 P, 1 R/W, 2 U/S, 5 A, 6 D, 7 PS, 12..31 frame bits 0..19;
   - high: 0..15 frame bits 20..35, 27..30 pkey, 31 NX.

   A found result packs, in one immediate: the slot address, the final
   entry's P bit and pkey, R/W and U/S ANDed and NX ORed over every level
   read, and whether the slot is a page-directory entry. R/W and U/S sit
   at their entry bit positions, so accumulating them is one mask. *)

let bit_present = 1
let bit_writable = 2
let bit_user = 4
let bit_nx = 8
let bit_pd = 16
let pkey_shift = 5
let slot_shift = 9

let entry_pfn lo hi = (lo lsr 12) lor ((hi land 0xffff) lsl 20)

(* Levels count down from 4 (PML4) to 1 (PT); [stop] is the level whose
   slot is wanted. A present PS entry at level 2 is a 2 MiB leaf and ends
   the descent whatever [stop] is. When an entry above [stop] is not
   present the result is [lnot (slot lor level)] of that entry: negative,
   and enough for [prepare] to install the missing table and resume. *)
let rec descend mem table level stop vaddr acc =
  let slot = entry_addr table ((vaddr lsr (3 + (9 * level))) land 0x1ff) in
  let lo = Phys_mem.read_u32 mem slot in
  let hi = Phys_mem.read_u32 mem (slot + 4) in
  let acc = (acc land (lo lor bit_nx)) lor ((hi lsr 31) lsl 3) in
  let present = lo land 1 in
  if level = stop || (level = 2 && present <> 0 && lo land 0x80 <> 0) then
    (slot lsl slot_shift)
    lor (((hi lsr 27) land 0xf) lsl pkey_shift)
    lor (if level = 2 then bit_pd else 0)
    lor acc lor present
  else if present = 0 then lnot (slot lor level)
  else descend mem (entry_pfn lo hi) (level - 1) stop vaddr acc

let lookup mem ~root_pfn vaddr = descend mem root_pfn 4 1 vaddr (bit_writable lor bit_user)

let found r = r >= 0
let present r = r >= 0 && r land bit_present <> 0
let slot r = r lsr slot_shift
let user r = r land bit_user <> 0
let writable r = r land bit_writable <> 0
let nx r = r land bit_nx <> 0
let huge r = r land bit_pd <> 0
let pkey r = (r lsr pkey_shift) land 0xf

let frame mem r vaddr =
  let s = slot r in
  let pfn = entry_pfn (Phys_mem.read_u32 mem s) (Phys_mem.read_u32 mem (s + 4)) in
  if huge r then pfn + ((vaddr lsr Phys_mem.page_shift) land 0x1ff) else pfn

let mark_accessed mem r ~dirty =
  let s = slot r in
  let lo = Phys_mem.read_u32 mem s in
  let lo' = lo lor 0x20 lor (if dirty then 0x40 else 0) in
  if lo' <> lo then Phys_mem.write_u32 mem s lo'

let present_frame mem addr =
  let lo = Phys_mem.read_u32 mem addr in
  if lo land 1 = 0 then -1 else entry_pfn lo (Phys_mem.read_u32 mem (addr + 4))

(* {1 Record API and stores, all over the one descent} *)

let walk mem ~root_pfn vaddr =
  let r = lookup mem ~root_pfn vaddr in
  if not (present r) then None
  else
    let pte_addr = slot r in
    Some
      {
        pte = Phys_mem.read_u64 mem pte_addr;
        pte_addr;
        user = user r;
        writable = writable r;
        nx = nx r;
        huge = huge r;
        pfn = frame mem r vaddr;
      }

let leaf_addr mem ~root_pfn vaddr =
  let r = lookup mem ~root_pfn vaddr in
  if found r then Some (slot r) else None

let intermediate_flags = { Pte.default_flags with user = true }

(* Descend to level [stop], installing a fresh table for each missing
   entry on the way and continuing inside it. *)
let rec prepare mem ~write_pte ~alloc_ptp ~table ~level ~stop vaddr =
  let r = descend mem table level stop vaddr 0 in
  if found r then r
  else begin
    let missing = lnot r in
    let fresh = alloc_ptp () in
    write_pte ~pte_addr:(missing land lnot 7) (Pte.make ~pfn:fresh intermediate_flags);
    prepare mem ~write_pte ~alloc_ptp ~table:fresh ~level:((missing land 7) - 1) ~stop
      vaddr
  end

let prepare_leaf mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr =
  let r = prepare mem ~write_pte ~alloc_ptp ~table:root_pfn ~level:4 ~stop:1 vaddr in
  if huge r then invalid_arg "Page_table.prepare_leaf: address lies in a 2MiB leaf";
  slot r

let map mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr pte =
  write_pte ~pte_addr:(prepare_leaf mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr) pte

let huge_page_size = 512 * Phys_mem.page_size

let map_huge mem ~write_pte ~alloc_ptp ~root_pfn ~vaddr pte =
  if vaddr land (huge_page_size - 1) <> 0 then
    invalid_arg "Page_table.map_huge: vaddr must be 2MiB-aligned";
  if Pte.pfn pte land 0x1ff <> 0 then
    invalid_arg "Page_table.map_huge: frame must be 2MiB-aligned";
  let r = prepare mem ~write_pte ~alloc_ptp ~table:root_pfn ~level:4 ~stop:2 vaddr in
  write_pte ~pte_addr:(slot r) (Pte.set_huge pte true)

let unmap mem ~write_pte ~root_pfn ~vaddr =
  let r = lookup mem ~root_pfn vaddr in
  if found r then write_pte ~pte_addr:(slot r) Pte.empty

let update mem ~write_pte ~root_pfn ~vaddr f =
  let r = lookup mem ~root_pfn vaddr in
  if not (present r) then false
  else begin
    let pte_addr = slot r in
    write_pte ~pte_addr (f (Phys_mem.read_u64 mem pte_addr));
    true
  end
