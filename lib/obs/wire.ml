(* LEB128 varints with zigzag for signed fields. The unsigned encoder
   shifts with [lsr], so it treats an int as its 63-bit pattern: negative
   ints (and zigzagged values of magnitude >= 2^61) encode in 9 bytes and
   decode back bit for bit. *)

exception Bad of string

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag n = (n lsr 1) lxor -(n land 1)

let add_uvarint buf n =
  let v = ref n in
  while !v land lnot 0x7F <> 0 do
    Buffer.add_char buf (Char.unsafe_chr (!v land 0x7F lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !v)

let add_svarint buf n = add_uvarint buf (zigzag n)

let add_string buf s =
  add_uvarint buf (String.length s);
  Buffer.add_string buf s

let put_byte b pos v =
  Bytes.set b pos (Char.unsafe_chr (v land 0xFF));
  pos + 1

let put_uvarint b pos n =
  let v = ref n and p = ref pos in
  while !v land lnot 0x7F <> 0 do
    p := put_byte b !p (!v land 0x7F lor 0x80);
    v := !v lsr 7
  done;
  put_byte b !p !v

let put_svarint b pos n = put_uvarint b pos (zigzag n)

let byte s pos =
  if !pos >= String.length s then raise (Bad "truncated");
  let c = Char.code (String.unsafe_get s !pos) in
  incr pos;
  c

(* Nine 7-bit groups carry all 63 bits; a tenth byte is never written. *)
let uvarint s pos =
  let v = ref 0 and shift = ref 0 and cont = ref true in
  while !cont do
    if !pos >= String.length s then raise (Bad "truncated varint");
    if !shift > 56 then raise (Bad "varint overflow");
    let b = Char.code (String.unsafe_get s !pos) in
    incr pos;
    v := !v lor ((b land 0x7F) lsl !shift);
    shift := !shift + 7;
    cont := b land 0x80 <> 0
  done;
  !v

let svarint s pos = unzigzag (uvarint s pos)

let string s pos =
  let len = uvarint s pos in
  if len < 0 || len > String.length s - !pos then raise (Bad "truncated string");
  let r = String.sub s !pos len in
  pos := !pos + len;
  r

(* JSON string bodies: quote, backslash and the control characters, with
   the short forms for \n \r \t. A string with nothing to escape is
   returned as is. *)
let escape_json s =
  let plain = ref true in
  String.iter
    (fun c -> if c = '"' || c = '\\' || Char.code c < 0x20 then plain := false)
    s;
  if !plain then s
  else begin
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end
