(* Command-line parsing for the binaries, benchmarks and examples: a
   declarative subcommand framework. Flags carry their own usage text, so
   an unknown flag can print the usage of exactly the subcommand it
   occurred under. *)

type flag = { names : string list; docv : string option; doc : string }

let flag ?docv names doc = { names; docv; doc }

type parsed = {
  ctx : string; (* "prog sub [sub...]" for usage rendering *)
  cflags : flag list;
  values : (string * string) list; (* canonical name -> value, last wins *)
  switches : string list; (* canonical names present *)
  positionals : string list;
}

let canon f = List.hd f.names

let flag_usage fl =
  let spell =
    String.concat ", " fl.names
    ^ match fl.docv with Some d -> " " ^ d | None -> ""
  in
  Printf.sprintf "  %-24s %s" spell fl.doc

type cmd =
  | Leaf of { name : string; doc : string; flags : flag list; body : parsed -> unit }
  | Group of { name : string; doc : string; subs : cmd list }

let cmd ?(flags = []) ~name ~doc body = Leaf { name; doc; flags; body }
let group ~name ~doc subs = Group { name; doc; subs }

let cmd_name = function Leaf c -> c.name | Group g -> g.name
let cmd_doc = function Leaf c -> c.doc | Group g -> g.doc

let leaf_usage ~ctx flags =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "usage: %s%s [ARG...]\n" ctx
       (if flags = [] then "" else " [FLAGS]"));
  List.iter (fun f -> Buffer.add_string b (flag_usage f ^ "\n")) flags;
  Buffer.contents b

let group_usage ~ctx ~doc subs =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "usage: %s COMMAND [...]\n%s\n" ctx doc);
  Buffer.add_string b "commands:\n";
  List.iter
    (fun c ->
      Buffer.add_string b (Printf.sprintf "  %-12s %s\n" (cmd_name c) (cmd_doc c)))
    subs;
  Buffer.contents b

let usage_fail ~ctx ~usage msg =
  Printf.eprintf "%s: %s\n%s" ctx msg usage;
  exit 2

let str p f =
  List.assoc_opt (canon f) p.values

let has p f =
  List.mem (canon f) p.switches || List.mem_assoc (canon f) p.values

let pos p = p.positionals

let fail p msg = usage_fail ~ctx:p.ctx ~usage:(leaf_usage ~ctx:p.ctx p.cflags) msg

let int_of p ?(min = 1) ~default f =
  match str p f with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= min -> n
      | _ ->
          fail p
            (Printf.sprintf "%s: integer >= %d expected, got %S" (canon f) min s))

let float_of p ?(min = 0.0) ~default f =
  match str p f with
  | None -> default
  | Some s -> (
      match float_of_string_opt s with
      | Some x when x >= min -> x
      | _ ->
          fail p
            (Printf.sprintf "%s: number >= %g expected, got %S" (canon f) min s))

let parse_leaf ~ctx ~flags ~body args =
  let usage = leaf_usage ~ctx flags in
  let find_flag a = List.find_opt (fun f -> List.mem a f.names) flags in
  let values = ref [] in
  let switches = ref [] in
  let positionals = ref [] in
  let rec go = function
    | [] -> ()
    | ("-h" | "--help") :: _ ->
        print_string usage;
        exit 0
    | a :: rest when String.length a > 1 && a.[0] = '-' -> (
        match find_flag a with
        | None -> usage_fail ~ctx ~usage (Printf.sprintf "unknown flag %S" a)
        | Some f -> (
            match f.docv with
            | None ->
                switches := canon f :: !switches;
                go rest
            | Some _ -> (
                match rest with
                | [] ->
                    usage_fail ~ctx ~usage
                      (Printf.sprintf "%s needs an argument" a)
                | v :: rest ->
                    (* last occurrence wins *)
                    values := (canon f, v) :: List.remove_assoc (canon f) !values;
                    go rest)))
    | a :: rest ->
        positionals := a :: !positionals;
        go rest
  in
  go args;
  body
    {
      ctx;
      cflags = flags;
      values = !values;
      switches = !switches;
      positionals = List.rev !positionals;
    }

let rec dispatch ~ctx ~doc subs args =
  let usage = group_usage ~ctx ~doc subs in
  match args with
  | [] ->
      print_string usage;
      exit 0
  | ("-h" | "--help") :: _ ->
      print_string usage;
      exit 0
  | name :: rest -> (
      match List.find_opt (fun c -> cmd_name c = name) subs with
      | None ->
          usage_fail ~ctx ~usage
            (Printf.sprintf "unknown command %S" name)
      | Some (Leaf c) ->
          parse_leaf ~ctx:(ctx ^ " " ^ c.name) ~flags:c.flags ~body:c.body rest
      | Some (Group g) ->
          dispatch ~ctx:(ctx ^ " " ^ g.name) ~doc:g.doc g.subs rest)

let run ?(argv = Sys.argv) ?default ~prog ~doc cmds =
  let args = Array.to_list argv |> List.tl in
  match (args, default) with
  | [], Some d -> dispatch ~ctx:prog ~doc cmds [ d ]
  | (a :: _), Some d
    when a <> "-h" && a <> "--help"
         && not (List.exists (fun c -> cmd_name c = a) cmds) ->
      (* Default subcommand with flags, e.g. "bench --smoke": flag words
         (or an unknown word, which the default leaf will then reject as a
         positional/flag) fall through to the default subcommand. *)
      if String.length a > 0 && a.[0] = '-' then
        dispatch ~ctx:prog ~doc cmds (d :: args)
      else dispatch ~ctx:prog ~doc cmds args
  | _ -> dispatch ~ctx:prog ~doc cmds args
