(* Plain-text rendering of the flight recorder's output, shared by the
   [swala_sim] CLI (post-run printing and the [report] subcommand) and
   anything else that holds either the live registry/health monitor or a
   metrics-JSON payload containing their exported sections. *)

module J = Metrics.Json

(* One rendered probe, decoupled from where it came from (live registry
   or parsed JSON) so both paths share the table/sparkline code. *)
type series_view = {
  sv_name : string;
  sv_kind : string;
  sv_width : float;
  sv_values : float array;  (* bucket values in time order; nan = empty *)
}

(* ------------------------------------------------------------------ *)
(* Sparklines: pure-ASCII level chars, one per bucket, space for empty
   buckets. A flat series renders at the lowest level rather than
   claiming a fake dynamic range. *)

let spark_levels = " .:-=+*#%@"

let sparkline values =
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iter
    (fun v ->
      if Float.is_finite v then begin
        if v < !lo then lo := v;
        if v > !hi then hi := v
      end)
    values;
  let n_levels = String.length spark_levels - 1 in
  let buf = Buffer.create (Array.length values) in
  Array.iter
    (fun v ->
      if not (Float.is_finite v) then Buffer.add_char buf ' '
      else if !hi <= !lo then Buffer.add_char buf spark_levels.[1]
      else begin
        let frac = (v -. !lo) /. (!hi -. !lo) in
        let level = 1 + int_of_float (frac *. float_of_int (n_levels - 1)) in
        let level = Stdlib.min n_levels (Stdlib.max 1 level) in
        Buffer.add_char buf spark_levels.[level]
      end)
    values;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Tables *)

let fmt_v v = if Float.is_finite v then Printf.sprintf "%.4g" v else "-"

let timeline_columns =
  [
    ("series", Metrics.Table.Left);
    ("kind", Metrics.Table.Left);
    ("n", Metrics.Table.Right);
    ("mean", Metrics.Table.Right);
    ("min", Metrics.Table.Right);
    ("max", Metrics.Table.Right);
    ("last", Metrics.Table.Right);
    ("timeline", Metrics.Table.Left);
  ]

let add_series_row tbl sv =
  let n = ref 0
  and sum = ref 0.
  and lo = ref infinity
  and hi = ref neg_infinity
  and last = ref Float.nan in
  Array.iter
    (fun v ->
      if Float.is_finite v then begin
        incr n;
        sum := !sum +. v;
        if v < !lo then lo := v;
        if v > !hi then hi := v;
        last := v
      end)
    sv.sv_values;
  let mean = if !n = 0 then Float.nan else !sum /. float_of_int !n in
  Metrics.Table.add_row tbl
    [
      sv.sv_name;
      sv.sv_kind;
      string_of_int !n;
      fmt_v mean;
      fmt_v (if !n = 0 then Float.nan else !lo);
      fmt_v (if !n = 0 then Float.nan else !hi);
      fmt_v !last;
      sparkline sv.sv_values;
    ]

(* The [gc.*] probes read the host allocator, so they differ between two
   builds of the same simulation. The tables print only simulated series,
   which keeps a run's report reproducible; the metrics JSON and the
   telemetry CSV keep the gc series. *)
let is_host_series sv = String.starts_with ~prefix:"gc." sv.sv_name

let timelines_table_of ~title views =
  let tbl = Metrics.Table.create ~title ~columns:timeline_columns in
  List.iter
    (fun sv -> if not (is_host_series sv) then add_series_row tbl sv)
    views;
  tbl

let kind_label = function
  | Metrics.Registry.Gauge -> "gauge"
  | Metrics.Registry.Rate -> "rate"
  | Metrics.Registry.Wmean -> "mean"

let views_of_registry reg =
  List.map
    (fun (s : Metrics.Registry.series) ->
      {
        sv_name = s.Metrics.Registry.name;
        sv_kind = kind_label s.Metrics.Registry.kind;
        sv_width = s.Metrics.Registry.width;
        sv_values = Array.map snd s.Metrics.Registry.points;
      })
    (Metrics.Registry.series reg)

let timelines_table reg =
  let width =
    match views_of_registry reg with [] -> 0. | sv :: _ -> sv.sv_width
  in
  timelines_table_of
    ~title:
      (Printf.sprintf "Timelines (%d samples, bucket %gs)"
         (Metrics.Registry.n_samples reg)
         width)
    (views_of_registry reg)

let incident_columns =
  [
    ("t", Metrics.Table.Right);
    ("detector", Metrics.Table.Left);
    ("value", Metrics.Table.Right);
    ("threshold", Metrics.Table.Right);
    ("message", Metrics.Table.Left);
  ]

let incidents_table incidents =
  let tbl =
    Metrics.Table.create
      ~title:(Printf.sprintf "Incidents (%d)" (List.length incidents))
      ~columns:incident_columns
  in
  List.iter
    (fun (i : Metrics.Health.incident) ->
      Metrics.Table.add_row tbl
        [
          Printf.sprintf "%.3fs" i.Metrics.Health.at;
          i.Metrics.Health.detector;
          fmt_v i.Metrics.Health.value;
          fmt_v i.Metrics.Health.threshold;
          i.Metrics.Health.message;
        ])
    incidents;
  tbl

(* ------------------------------------------------------------------ *)
(* Rendering from a parsed metrics-JSON payload ([swala_sim report]) *)

let float_of_json v = Option.value ~default:Float.nan (J.to_float_opt v)

let views_of_json payload =
  match J.member "timelines" payload with
  | None -> None
  | Some tl ->
      let series = Option.value ~default:J.Null (J.member "series" tl) in
      let view name =
        let s = Option.value ~default:J.Null (J.member name series) in
        let kind =
          match J.member "kind" s with Some (J.Str k) -> k | _ -> "?"
        in
        let width =
          match J.member "width_s" s with
          | Some v -> float_of_json v
          | None -> Float.nan
        in
        let values =
          match J.member "points" s with
          | Some (J.List pts) ->
              Array.of_list
                (List.map
                   (fun p ->
                     match J.member "v" p with
                     | Some v -> float_of_json v
                     | None -> Float.nan)
                   pts)
          | _ -> [||]
        in
        { sv_name = name; sv_kind = kind; sv_width = width; sv_values = values }
      in
      Some (List.map view (J.keys series))

let incidents_of_json payload =
  match J.member "incidents" payload with
  | Some (J.List items) ->
      Some
        (List.map
           (fun i ->
             {
               Metrics.Health.at =
                 (match J.member "at_s" i with
                 | Some v -> float_of_json v
                 | None -> Float.nan);
               detector =
                 (match J.member "detector" i with
                 | Some (J.Str d) -> d
                 | _ -> "?");
               value =
                 (match J.member "value" i with
                 | Some v -> float_of_json v
                 | None -> Float.nan);
               threshold =
                 (match J.member "threshold" i with
                 | Some v -> float_of_json v
                 | None -> Float.nan);
               message =
                 (match J.member "message" i with
                 | Some (J.Str m) -> m
                 | _ -> "");
             })
           items)
  | Some _ | None -> None

let render_json_report payload =
  let buf = Buffer.create 4096 in
  (match views_of_json payload with
  | None -> ()
  | Some views ->
      let samples =
        match
          Option.bind (J.member "timelines" payload) (J.member "samples")
        with
        | Some (J.Int n) -> n
        | _ -> 0
      in
      let width = match views with [] -> 0. | sv :: _ -> sv.sv_width in
      let title =
        Printf.sprintf "Timelines (%d samples, bucket %gs)" samples width
      in
      Buffer.add_string buf
        (Metrics.Table.render (timelines_table_of ~title views));
      Buffer.add_char buf '\n');
  (match incidents_of_json payload with
  | None -> ()
  | Some incidents ->
      if Buffer.length buf > 0 then Buffer.add_char buf '\n';
      Buffer.add_string buf (Metrics.Table.render (incidents_table incidents));
      Buffer.add_char buf '\n');
  if Buffer.length buf = 0 then None else Some (Buffer.contents buf)
