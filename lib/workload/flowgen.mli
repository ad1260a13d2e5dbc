(** Flow generators over a {!Population}: labelled {!Baselines.Flow_info}
    streams for the decision-quality experiments, and raw 5-tuple
    streams for the performance benchmarks. All deterministic given the
    generator. *)

open Netcore

val intent_of_population : Population.t -> Baselines.Flow_info.t -> bool
(** The same intent, parameterised by the population whose first server
    is the "important" one. *)

val mixed :
  ?intent:(Baselines.Flow_info.t -> bool) ->
  prng:Sim.Prng.t ->
  population:Population.t ->
  count:int ->
  unit ->
  Baselines.Flow_info.t list
(** Client-to-server flows with apps drawn from the catalog (weighted
    toward approved apps), servers drawn Zipf-style (popular servers
    get more flows), plus a sprinkle of client-to-client (skype) and
    Internet-to-server flows. The [legitimate] label is [intent]
    applied {e after} construction, so scoring is consistent across
    systems. *)

val distinct_tuples :
  population:Population.t -> count:int -> Five_tuple.t list
(** [count] pairwise-distinct 5-tuples, round-robin over the population
    (for flow-table scaling benchmarks). *)

val zipf_pick : Sim.Prng.t -> n:int -> int
(** Zipf(s=1)-distributed index in [0, n): index 0 is most popular. *)
