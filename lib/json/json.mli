(** The JSON substrate every document of this repository goes through.

    One value type, one reader, two printers and one set of typed
    accessors.  Every emitter builds a {!t} and prints it with
    {!to_string} (documents) or {!to_line} (JSON Lines); every reader
    parses with {!parse} and decodes with the accessors, whose errors
    name the path of the offending value ([$.nodes[3].eps: expected a
    number]).

    {b Layout.}  {!to_string} writes objects one member per line at a
    2-space indent; arrays of scalars inline; arrays holding any object
    or array one element per line, each element inline.  {!to_line}
    writes everything inline.  Inline separators are [", "] and
    [": "].

    {b Numbers.}  [Int n] prints as [%d].  A finite [Num] prints as
    [%.1f] when integral (and below 1e17 in magnitude, where [%.17g]
    would print bare digits), otherwise as [%.17g]; both round-trip
    bit-exactly through {!parse}.  Non-finite floats print as [null].
    Documents that must never carry [null] for a number clamp first
    with {!clamp}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** {1 Reading} *)

exception Parse_error of string

val parse : string -> t
(** Integer literals (no [.], [e] or [E]) that fit an OCaml [int] read
    as [Int]; every other number as [Num].  BMP [\uXXXX] escapes decode
    to UTF-8.
    @raise Parse_error on malformed input (with an offset). *)

(** {1 Printing} *)

val to_string : t -> string
(** Pretty document, ending in a newline. *)

val to_line : t -> string
(** The whole value on one line, no trailing newline. *)

(** {1 Building} *)

val clamp : float -> t
(** [Num v] with non-finite [v] clamped: [+inf] to [1e308], [-inf] to
    [-1e308], NaN to [0]. *)

val opt : ('a -> t) -> 'a option -> t
(** [None] is [Null]. *)

val nums : float list -> t
val strs : string list -> t

(** {1 Accessors}

    Decoders of type [t -> 'a] raise {!Type_error} carrying the path
    (relative to the value they were applied to) and a message;
    {!field} and {!list} extend the path as errors propagate out. *)

exception Type_error of string * string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raise a {!Type_error} at the current path (for cross-field checks
    inside a decoder). *)

val field : string -> (t -> 'a) -> t -> 'a
(** Decode a required object member. *)

val field_opt : string -> (t -> 'a) -> t -> 'a option
(** A member that may be absent or [null]. *)

val num : t -> float
(** A finite number; [Int] widens. *)

val int : t -> int
(** An [Int], or an integral [Num]. *)

val str : t -> string
val bool : t -> bool

val nullable : (t -> 'a) -> t -> 'a option
(** [null] is [None]. *)

val list : (t -> 'a) -> t -> 'a list

val obj : (t -> 'a) -> t -> (string * 'a) list
(** An object's members in order, values decoded. *)

val schema : string -> t -> unit
(** The ["schema"] member must equal the given name. *)

val catch : (unit -> 'a) -> ('a, string) result
(** Run a reader: {!Type_error} renders as [$<path>: <message>] (just
    the message at the root), {!Parse_error} as
    [invalid JSON: <message>]. *)

val of_file : string -> (t -> 'a) -> ('a, string) result
(** Read, parse and decode a file, under {!catch}; errors are prefixed
    with the file name. *)
