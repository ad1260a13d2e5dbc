type t = { name : string; admits : Flow_info.t -> bool }

type score = {
  total : int;
  admitted : int;
  false_allows : int;
  false_denies : int;
}

let score t flows =
  List.fold_left
    (fun acc (fi : Flow_info.t) ->
      let admitted = t.admits fi in
      {
        total = acc.total + 1;
        admitted = (acc.admitted + if admitted then 1 else 0);
        false_allows =
          (acc.false_allows + if admitted && not fi.legitimate then 1 else 0);
        false_denies =
          (acc.false_denies + if (not admitted) && fi.legitimate then 1 else 0);
      })
    { total = 0; admitted = 0; false_allows = 0; false_denies = 0 }
    flows

let accuracy s =
  if s.total = 0 then 1.0
  else float_of_int (s.total - s.false_allows - s.false_denies) /. float_of_int s.total
