(** A single lint finding: a rule violation at a source location. *)

type severity = Error | Warning

type t = {
  file : string;  (** path as given to the linter, '/'-normalized *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler diagnostics *)
  rule : string;  (** rule id, e.g. ["unordered-iteration"] *)
  severity : severity;
  message : string;
}

val severity_name : severity -> string

val render : t -> string
(** [file:line:col [rule-id] message], the format CI greps for. *)

val compare : t -> t -> int
(** Order by file, line, col, rule — a deterministic report order. *)

val to_json : t -> string
(** One finding as a JSON object (keys [file], [line], [col], [rule],
    [severity], [message]); strings escaped per RFC 8259. *)

val render_json : t list -> string
(** A findings list as a JSON array, one object per line — the
    [--json] output of the lint driver, stable enough for CI to diff. *)
