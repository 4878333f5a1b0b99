(** Parsing the wire protocol's line-delimited JSON.

    The inverse of {!Telemetry.Json.to_string} over the same value type
    — a dependency-free recursive-descent parser, strict about trailing
    input so one protocol line is exactly one JSON value. Numbers parse
    to [Int] when they fit an OCaml int, [Float] otherwise; [\u] escapes
    (including surrogate pairs) decode to UTF-8. Arrays and objects
    nest at most {!max_depth} deep; a deeper line is rejected as soon
    as the parser reaches the first container past the limit. *)

val max_depth : int
(** Deepest container nesting {!parse} accepts: [[[1]]] is depth 2. *)

val parse : string -> (Telemetry.Json.t, string) result
(** [Error] carries a byte-offset-annotated message. *)

val parse_exn : string -> Telemetry.Json.t
(** @raise Failure with the same message. *)
