(** Command-line parsing for the binaries, bench drivers and examples — no
    cmdliner. A declarative subcommand framework ({!cmd}, {!group},
    {!run}): named flags with docstrings, positional arguments, generated
    per-subcommand usage, and unknown-flag diagnostics that print the usage
    of the subcommand they occurred under (exit 2). *)

type flag
(** A named option: one or more spellings, an optional value placeholder
    (a flag without one is a bare switch), and a docstring. *)

val flag : ?docv:string -> string list -> string -> flag
(** [flag ~docv ["-w"; "--workload"] doc]. With [docv] the flag consumes
    the following argv word as its value; without, it is a switch. *)

type parsed
(** The result of parsing one subcommand's arguments. *)

val str : parsed -> flag -> string option
(** The flag's value (last occurrence wins), if present. *)

val has : parsed -> flag -> bool

val int_of : parsed -> ?min:int -> default:int -> flag -> int
(** Integer value with range check; parse failures are usage errors
    ({!fail}). *)

val float_of : parsed -> ?min:float -> default:float -> flag -> float

val pos : parsed -> string list
(** Positional (non-flag) arguments, in order. *)

val fail : parsed -> string -> 'a
(** Print [msg] and the current subcommand's usage to stderr, exit 2. For
    semantic errors discovered after parsing (unknown workload name, ...);
    parse-level errors (unknown flag, missing value) go through the same
    path automatically. *)

type cmd

val cmd : ?flags:flag list -> name:string -> doc:string -> (parsed -> unit) -> cmd

val group : name:string -> doc:string -> cmd list -> cmd
(** A subcommand with nested subcommands ([audit verify], [journal query]).
    Groups nest arbitrarily; flags attach to leaves. *)

val run :
  ?argv:string array -> ?default:string -> prog:string -> doc:string ->
  cmd list -> unit
(** Dispatch [argv] over the command tree: the first non-flag word selects
    the subcommand (recursively for groups), the rest is parsed against its
    flag list. [-h]/[--help] at any level prints the relevant usage and
    exits 0; an unknown subcommand or flag prints a diagnostic plus the
    relevant usage and exits 2. With no subcommand word, [default] (when
    given) is dispatched, otherwise the top-level usage is printed to
    stdout (exit 0). *)
