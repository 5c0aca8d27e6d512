(** Minimal CSV writing for experiment series.

    [abe-sim reproduce --csv] saves each experiment table as a CSV file
    (one per "figure"), so the tables printed on stdout can also be
    re-plotted with external tools.  Quoting follows RFC 4180: fields
    containing commas, quotes or newlines are quoted, quotes doubled. *)

type t

val create : columns:string list -> t
val add_row : t -> string list -> unit
(** @raise Invalid_argument if the width differs from [columns]. *)

val to_string : t -> string
val save : t -> path:string -> unit
(** Write to a file, creating missing parent directories first.  Safe
    under concurrent callers (losing a directory's creation race to another
    domain or process is success).
    @raise Invalid_argument if a path component exists and is not a
    directory. *)
