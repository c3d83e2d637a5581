(** Shared wire-format helpers for request and response parsing. *)

(** [split_head s] splits the message head into lines (tolerating CRLF and
    bare LF), stopping at the first empty line; returns the lines and the
    byte offset of the body. *)
val split_head : string -> string list * int

(** [parse_header_line line] splits ["Name: value"]. *)
val parse_header_line : string -> (string * string, string) result

(** [decimal_length n] is [String.length (string_of_int n)] for [n >= 0]. *)
val decimal_length : int -> int

(** [header_lines_length hs] is the byte count of the ["k: v\r\n"] lines
    printing [hs]. *)
val header_lines_length : (string * string) list -> int

(** [content_length_line_length n] is the byte count of the line
    ["Content-Length: n\r\n"]. *)
val content_length_line_length : int -> int
