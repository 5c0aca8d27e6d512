(** ASCII tables for experiment output.

    A table has a title, column headers and string cells; rendering
    right-pads to the widest cell per column.  Helper formatters build the
    common cell types. *)

type t

val create : title:string -> columns:string list -> t
val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_bool : bool -> string
val cell_summary : Abe_prob.Stats.summary -> string
(** "mean ± ci95" form. *)

val render : t -> string
val print : t -> unit
(** Render to stdout with a trailing blank line. *)

val title : t -> string
val to_csv : t -> Csv.t
(** The same data as an RFC-4180 CSV (header = column names). *)
