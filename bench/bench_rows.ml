(* One row list, two renderings.

   An experiment declares its columns once and builds one list of typed
   rows; [text] lays the rows out as the bench's fixed-width table and
   [json] writes the same rows as the array of objects in its
   BENCH_*.json file.  A column without a header is JSON-only and one
   without a key is text-only, so a table and its JSON can order or
   show a field differently while the rows are built once.

   A cell holds the JSON value itself: text shows [Null] as "-", an int
   as its digits and a float with two decimals unless the column says
   otherwise; JSON writes the value as is.  A cell of [None] is left out
   of the JSON object (and shown as "-"). *)

module J = Mach_obs.Obs_json

type 'r col = {
  head : string option;
  key : string option;
  get : 'r -> J.t option;
  show : J.t -> string;
}

let cell = function
  | J.Null -> "-"
  | J.Int n -> string_of_int n
  | J.Float f -> Printf.sprintf "%.2f" f
  | J.String s -> s
  | J.Bool b -> string_of_bool b
  | J.List _ | J.Obj _ -> invalid_arg "Bench_rows.cell: not a scalar"

(* A float shown with [digits] decimals. *)
let fixed digits = function
  | J.Float f -> Printf.sprintf "%.*f" digits f
  | v -> cell v

(* A column in the table (headed [head]) and, given [key], in the JSON. *)
let col ?key ?(show = cell) head get =
  { head = Some head; key; get = (fun r -> Some (get r)); show }

(* A JSON-only column whose key is left out where [get] is [None]. *)
let json_opt key get = { head = None; key = Some key; get; show = cell }

(* A JSON-only column. *)
let json key get = json_opt key (fun r -> Some (get r))

(* The fixed-width table: every cell left-aligned and padded to its
   column's widest entry, then two spaces. *)
let layout ~header rows =
  let widths =
    List.fold_left
      (fun acc row ->
        List.map2 (fun w cell -> max w (String.length cell)) acc row)
      (List.map String.length header)
      rows
  in
  let line row =
    String.concat "" (List.map2 (Printf.sprintf "%-*s  ") widths row) ^ "\n"
  in
  String.concat ""
    (List.map line
       (header :: List.map (fun w -> String.make w '-') widths :: rows))

let text cols rows =
  let cols = List.filter (fun c -> c.head <> None) cols in
  layout
    ~header:(List.map (fun c -> Option.get c.head) cols)
    (List.map
       (fun r ->
         List.map
           (fun c -> match c.get r with Some v -> c.show v | None -> "-")
           cols)
       rows)

let obj cols r =
  J.Obj
    (List.filter_map
       (fun c ->
         match (c.key, c.get r) with
         | Some k, Some v -> Some (k, v)
         | _ -> None)
       cols)

let to_json cols rows = J.List (List.map (obj cols) rows)
