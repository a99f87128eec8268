(** Page-table-entry encoding, following the x86-64 layout: P/RW/US low
    flags, accessed/dirty, the PS (huge) bit, a 36-bit frame number at bit
    12, a memory-encryption key id at bits 48–57, protection key at bits
    59–62 and NX at bit 63. The paper's prototype disables huge pages to
    keep PKS permission management at 4 KiB granularity (§7); this
    encoding carries the PS bit so 2 MiB page-directory leaves can exist
    ([Page_table.map_huge]) and be split by the monitor. *)

type t = int64

val empty : t

type flags = {
  present : bool;
  writable : bool;
  user : bool;            (** U/S = 1: user-accessible page. *)
  nx : bool;              (** Non-executable. *)
  pkey : int;             (** Protection key 0–15. *)
  accessed : bool;
  dirty : bool;
}

val default_flags : flags
(** Present, writable, supervisor, executable, key 0. *)

val make : pfn:int -> flags -> t
(** Raises [Invalid_argument] for out-of-range pfn or key. *)

val make_leaf : pfn:int -> user:bool -> writable:bool -> nx:bool -> t
(** [make ~pfn { default_flags with user; writable; nx }] without building
    the flags record: the demand-fault path's leaf. *)

val pfn : t -> int
val flags : t -> flags
val present : t -> bool
val writable : t -> bool
val user : t -> bool
val nx : t -> bool
val pkey : t -> int
val dirty : t -> bool
val accessed : t -> bool

val huge : t -> bool
(** PS bit: at the page-directory level this entry maps a 2 MiB page. The
    paper's prototype disables huge pages (§7); this implementation carries
    them plus the forced-splitting path the paper leaves as future work. *)

val set_huge : t -> bool -> t

val with_pfn : t -> int -> t
val set_present : t -> bool -> t
val set_writable : t -> bool -> t
val set_user : t -> bool -> t
val set_nx : t -> bool -> t
val keyid_bits : int
(** Width of the keyid field (10 → ids 0–1023). *)

val keyid : t -> int
(** Memory-encryption key id (TME-MK style), carried in the otherwise-free
    physical-address upper bits 48–57. 0 means "no key" (shared/TME-global
    key); the walker packs it into TLB entries so key checks happen at fill
    time, mirroring how TME-MK derives the keyid from PTE address bits. *)

val set_keyid : t -> int -> t
(** Raises [Invalid_argument] outside 0–1023. *)

val set_pkey : t -> int -> t
val set_dirty : t -> bool -> t
val set_accessed : t -> bool -> t

val pp : Format.formatter -> t -> unit
