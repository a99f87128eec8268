(** The one varint codec behind both telemetry wire formats, the journal
    (EJRN1) and sketches (ESK1) — plus the one JSON string escaper behind
    every JSON exporter (Chrome traces, metrics, audit records).

    Unsigned varints are LEB128 over the full 63-bit pattern of an int (a
    negative int is 9 bytes); signed varints zigzag first, so every int
    from [min_int] to [max_int] round-trips. *)

exception Bad of string
(** A malformed encoding: truncation, an over-long varint, a string that
    runs past the input. Raised only by the readers. *)

(** {2 Buffer writer} (sketches, journal metadata) *)

val add_uvarint : Buffer.t -> int -> unit
val add_svarint : Buffer.t -> int -> unit

val add_string : Buffer.t -> string -> unit
(** Length-prefixed bytes. *)

(** {2 Preallocated-bytes writer} (the journal hot path)

    Each call writes at [pos] and returns the position after the written
    bytes; nothing allocates. The caller sizes the buffer. *)

val put_byte : Bytes.t -> int -> int -> int
val put_uvarint : Bytes.t -> int -> int -> int
val put_svarint : Bytes.t -> int -> int -> int

(** {2 Reader}

    Decodes from a string at the cursor [pos], advancing it; raises {!Bad}
    rather than reading past the end. *)

val byte : string -> int ref -> int
val uvarint : string -> int ref -> int
val svarint : string -> int ref -> int
val string : string -> int ref -> string

(** {2 JSON strings} *)

val escape_json : string -> string
(** JSON string-body escaping: quote, backslash, [\n] [\r] [\t], and every
    other control character as [\u00XX]. *)
