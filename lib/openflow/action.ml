type t = Output of int | Flood | To_controller | Drop | Goto_table of int

let drop = [ Drop ]

(* [[Output p]] for every port below 256, built once. *)
let outputs = Array.init 256 (fun p -> [ Output p ])

let output p =
  if p >= 0 && p < Array.length outputs then outputs.(p) else [ Output p ]

let is_drop actions = List.for_all (function Drop -> true | _ -> false) actions
let output_ports actions = List.filter_map (function Output p -> Some p | _ -> None) actions

let pp ppf = function
  | Output p -> Format.fprintf ppf "output:%d" p
  | Flood -> Format.pp_print_string ppf "flood"
  | To_controller -> Format.pp_print_string ppf "controller"
  | Drop -> Format.pp_print_string ppf "drop"
  | Goto_table n -> Format.fprintf ppf "goto:%d" n

let pp_list ppf actions =
  match actions with
  | [] -> Format.pp_print_string ppf "drop(empty)"
  | _ ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
        pp ppf actions
