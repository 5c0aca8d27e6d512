(** ASCII execution timelines.

    Renders per-node state evolution over a time interval as fixed-width
    character strips: each row starts in [initial] and changes glyph at
    every event, e.g.

    {v
    node  0 ........aaaaaaaaaappppppppppppppppp
    node  1 ...............ppppppppppppppppppp
    node  2 .....aaaaaaaaaaaaaaaaaaaaaaaaaaaaL
    v}

    Used by the examples to visualise elections (idle/active/passive/leader
    phases). *)

type event = {
  time : float;
  row : int;
  glyph : char;  (** the row's state from [time] on *)
}

val render :
  rows:int ->
  duration:float ->
  initial:char ->
  event list ->
  string
(** [render ~rows ~duration ~initial events] lays the events onto
    72-column strips, one per row, labelled ["node  3"].  Events outside
    [\[0, duration\]] or with an invalid row index are rejected.  Events
    are sorted internally; simultaneous events on the same row keep list
    order. *)
